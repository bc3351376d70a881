(** Hardened solve pipeline: validation, one global deadline, and a
    graceful degradation ladder.

    The paper's workflow trusts its solver and feeds it well-formed
    inputs by construction. This entry point assumes neither. It first
    validates the application model (single writer per label, positive
    periods and sizes, labels fit their memories, cores not overloaded),
    then walks a ladder of solving rungs under one shared wall-clock
    budget:

    + {b MILP} — the lazy-Constraint-6 branch-and-bound driver, run once;
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

type rung = Milp | Heuristic | Baseline

val rung_name : rung -> string

(** One tried rung and why it was (not) accepted. *)
type attempt = { rung : rung; accepted : bool; reason : string; time_s : float }

type failure =
  | Invalid_model of string list
  | Rejected of Experiment.error
      (** turned away by {!Experiment.prepare}: no inter-core
          communication, or no gamma at this [alpha] *)
  | Exhausted of attempt list  (** every rung failed certification *)

val failure_to_string : failure -> string

(** [fallback rung app groups ~gamma] is a fallback rung's plan with its
    {!Certify} verdict: the per-task heuristic plan for [Heuristic]
    ([None] when the heuristic finds none), {!Baselines.giotto_solution}
    for [Baseline]. The ladder's fallback rungs and the service's shed
    tiers answer with it. Raises [Invalid_argument] on [Milp]. *)
val fallback :
  rung ->
  App.t ->
  Groups.t ->
  gamma:Time.t array ->
  (Solution.t * (Certify.t, Certify.violation list) result) option

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

(** The MILP rung, as a replaceable hook — the default is {!Solve.solve}
    with the absolute [deadline_s]. Tests substitute a misbehaving solver
    to exercise the certification-failure path of the ladder. *)
type milp_solver =
  deadline_s:float ->
  Formulation.objective ->
  App.t ->
  Groups.t ->
  gamma:Time.t array ->
  Solve.result

(** [run app] validates, prepares the configuration at [alpha] (default
    [0.2]) with {!Experiment.prepare} and walks the ladder under
    [budget_s] (default [60] s) of total wall time. [objective]
    configures the MILP rung, one sequential search from {!Solve.solve}'s
    own MIP start. The fallback rungs offer {!fallback}'s plans. *)
val run :
  ?milp_solve:milp_solver ->
  ?objective:Formulation.objective ->
  ?budget_s:float ->
  ?alpha:float ->
  App.t ->
  (outcome, failure) result
