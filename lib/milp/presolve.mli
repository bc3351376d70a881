(** Presolve: activity-based bound tightening, redundant-row elimination
    and early infeasibility detection, iterated to a fixpoint.

    The reduced problem keeps every variable (same ids, possibly tighter
    bounds) and drops provably redundant rows, so feasible solutions and
    optima transfer verbatim between the two problems (property-tested). *)

type result =
  | Reduced of Problem.t
  | Infeasible of string  (** name of the witnessing row *)

type stats = { rounds : int; rows_dropped : int; bounds_tightened : int }

(** [run p] iterates the reductions to a fixpoint, for at most 10
    rounds. *)
val run : Problem.t -> result * stats
