(** Hardened solve pipeline: validation, one global deadline, and a
    graceful degradation ladder.

    The paper's workflow trusts its solver and feeds it well-formed
    inputs by construction. This entry point assumes neither. It first
    validates the application model (single writer per label, positive
    periods and sizes, labels fit their memories, cores not overloaded),
    then walks a ladder of solving rungs under one shared wall-clock
    budget:

    + {b MILP} — the lazy-Constraint-6 branch-and-bound driver;
    + {b MILP, perturbed} — on timeout, numerical failure or a failed
      certificate: one retry with every gamma bound tightened by 0.1 %
      and no warm start (the shifted right-hand sides move the simplex
      off the degenerate vertex or tolerance edge that broke the first
      attempt, while any solution it finds is still certified against
      the {e original} deadlines);
    + {b heuristic} — the greedy scheduler/allocator;
    + {b baseline} — identity allocation with singleton Giotto transfers,
      which exists whenever the model is valid and communications exist.

    Every rung's output is re-verified by {!Certify} before being
    accepted; the outcome records which rung produced the accepted
    solution and why the earlier rungs were rejected. *)

open Rt_model
open Let_sem

(** Model problems found by {!validate_app} (empty list = valid). *)
val validate_app : App.t -> string list

type rung = Milp | Milp_perturbed | Heuristic | Baseline

val rung_name : rung -> string

(** One tried rung and why it was (not) accepted. *)
type attempt = { rung : rung; accepted : bool; reason : string; time_s : float }

type failure =
  | Invalid_model of string list
  | No_communications  (** nothing for the DMA to do *)
  | Unschedulable of float  (** no gamma exists at this [alpha] *)
  | Exhausted of attempt list  (** every rung failed certification *)

val failure_to_string : failure -> string

type outcome = {
  rung : rung;  (** the rung whose solution was accepted *)
  solution : Solution.t;
  certificate : Certify.t;
  gamma : Time.t array;
  attempts : attempt list;  (** in ladder order, accepted rung last *)
  solve_stats : Solve.stats option;  (** of the accepted MILP rung *)
  total_time_s : float;
}

val pp_outcome : App.t -> Format.formatter -> outcome -> unit

(** The MILP rung, as a replaceable hook — the default wraps
    {!Solve.solve}. Tests substitute a misbehaving solver to exercise the
    certification-failure path of the ladder.

    [chain] is a basis hand-off cell shared by the consecutive MILP
    rungs: the default solver warm-starts its root LP from the basis
    found there and deposits its own root basis for the next rung (see
    {!Milp.Simplex_core.Basis}); replacement solvers may ignore it. *)
type milp_solver =
  deadline_s:float ->
  presolve:bool ->
  warm:Solution.t option ->
  chain:Milp.Simplex_core.Basis.t option ref ->
  options:Formulation.options ->
  Formulation.objective ->
  App.t ->
  Groups.t ->
  gamma:Time.t array ->
  Solve.result

(** [run app] validates, computes gamma at [alpha] (default [0.2]) and
    walks the ladder under [budget_s] (default [60] s) of total wall
    time. [objective] and [options] configure the MILP rungs; the
    primary rung is warm-started with the heuristic plan. The rungs run
    one after the other, and each MILP rung is one sequential search.

    [presolve] (default [true]) is handed to every MILP rung: root
    presolve reduces the model before branch-and-bound. The reduction is
    keyed so solver trajectories match the unpresolved model exactly;
    [presolve:false] opts out for debugging or measurement.

    [retries] (default 0) supervises the MILP rungs: with [retries > 0]
    each rung runs through {!Solve.solve_supervised} with up to
    [retries] extra attempts, escalating solver parameters between them
    (Dantzig pricing, warm pool off, presolve off, scaled LP iteration
    budgets) and sleeping an exponential backoff starting at [backoff_s]
    (default 0.1 s, capped, deadline-aware). The supervised path skips
    the inter-rung basis chain. If every supervised attempt fails, the
    ladder degrades to the heuristic and baseline rungs as usual — the
    ladder itself is the final fallback. A caller-supplied [milp_solve]
    hook takes precedence: [retries] then has no effect. *)
val run :
  ?milp_solve:milp_solver ->
  ?objective:Formulation.objective ->
  ?options:Formulation.options ->
  ?budget_s:float ->
  ?alpha:float ->
  ?presolve:bool ->
  ?retries:int ->
  ?backoff_s:float ->
  App.t ->
  (outcome, failure) result
