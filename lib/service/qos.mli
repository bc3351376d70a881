(** Per-request quality-of-service policy: deadline classes and the
    load-shedding ladder.

    Under load a service must not queue unboundedly: a request admitted
    when the backlog is deep would blow its deadline waiting for pool
    capacity that the earlier requests already own. Instead each request
    carries a {e class}, and the planner sheds it down
    {!Letdma.Pipeline}'s degradation ladder — full MILP, then the greedy
    heuristic, then the Giotto baseline — as the instantaneous load
    factor (queued solve requests per pool worker) grows or its
    remaining budget shrinks. Shedding trades optimality for a
    guaranteed answer; the daemon never refuses a well-formed request
    for load reasons.

    The thresholds are deliberately plain constants (unit-tested): the
    policy must be predictable to operators reading the table in the
    README, not adaptive. *)

type klass =
  | Gold  (** never shed: always the full MILP, whatever the load *)
  | Silver  (** default: MILP until load 2.0, heuristic until 8.0 *)
  | Bronze  (** shed early: MILP until load 1.0, heuristic until 4.0 *)

val klass_of_string : string -> klass option
(** ["gold"], ["silver"], ["bronze"]. *)

val klass_name : klass -> string

val plan : klass -> load:float -> budget_s:float -> Letdma.Pipeline.rung
(** [plan k ~load ~budget_s] picks the solving tier for one request: a
    rung of the degradation ladder ({!Letdma.Pipeline.rung}), named on
    the wire by {!Letdma.Pipeline.rung_name}. [Milp] is
    {!Letdma.Solve.solve}; the shed tiers answer with
    {!Letdma.Pipeline.fallback}'s plans.
    [load] is queued solve requests in the batch divided by pool
    workers; [budget_s] the request's remaining wall-clock budget when
    planned. Silver and Bronze additionally shed MILP when [budget_s]
    is under 1 s (an LP warm-up alone can eat that), and anything when
    it is under 50 ms. Gold always gets [Milp]. *)
