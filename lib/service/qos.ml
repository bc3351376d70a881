(* Deadline classes and the deterministic shedding ladder. Thresholds
   are constants, not tunables: operators must be able to predict which
   tier a request gets from the README table alone. *)

type klass = Gold | Silver | Bronze

let klass_of_string = function
  | "gold" -> Some Gold
  | "silver" -> Some Silver
  | "bronze" -> Some Bronze
  | _ -> None

let klass_name = function
  | Gold -> "gold"
  | Silver -> "silver"
  | Bronze -> "bronze"

(* Shedding table. [load] = queued solve requests / pool workers at
   batch admission; [budget_s] = the request's remaining budget. A MILP
   tier needs both headroom in the queue and at least a second of
   budget; the heuristic runs in milliseconds but still needs a sliver
   of wall clock. Gold is exempt by contract: it would rather time out
   inside the MILP (and report feasible/unknown) than degrade. The tiers
   are the ladder's rungs. *)
let plan klass ~load ~budget_s : Letdma.Pipeline.rung =
  match klass with
  | Gold -> Milp
  | Silver ->
    if load <= 2.0 && budget_s >= 1.0 then Milp
    else if load <= 8.0 && budget_s >= 0.05 then Heuristic
    else Baseline
  | Bronze ->
    if load <= 1.0 && budget_s >= 1.0 then Milp
    else if load <= 4.0 && budget_s >= 0.05 then Heuristic
    else Baseline
