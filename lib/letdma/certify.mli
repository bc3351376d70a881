(** Independent solution certifier.

    Our simplex / branch-and-bound stack has none of a commercial solver's
    numerical hardening, and the heuristic and baselines are hand-written
    combinatorial code — so no decoded solution is trusted as-is. This
    module re-verifies a {!Solution.t} from first principles, independently
    of the code that produced it:

    - every MILP bound, integrality requirement and constraint row is
      re-evaluated against the raw model ({!Milp.Problem.residuals});
    - the memory allocation is re-checked for coverage and capacity
      against the paper's mapping rules ({!Mem_layout});
    - every pattern's projected plan is re-checked for well-formedness,
      LET Properties 1-3 and transfer contiguity ({!Let_sem.Properties});
    - the analytic latencies are compared against the gamma deadlines.

    The result is a typed certificate or a structured list of violations,
    consumed by {!Solve}, {!Pipeline}, the experiment driver and the CLI. *)

open Rt_model
open Let_sem

(** Which rung of the pipeline produced the solution. Timing findings —
    Property-3 overruns and gamma deadline misses — are hard violations
    for MILP-produced solutions (the model constrains both, so a miss
    means the solver lied) but only warnings for the heuristic and
    baselines, which may legitimately overrun. Structural findings
    (coverage, capacity, well-formedness, Properties 1-2, contiguity) are
    hard for every source. *)
type source = Milp_optimal | Milp_incumbent | Heuristic | Baseline

val source_name : source -> string

(** The source of a MILP plan: [Milp_optimal] when the search that found
    it ended [Optimal], [Milp_incumbent] otherwise. *)
val milp_source : Milp.Branch_bound.status -> source

type violation =
  | Missing_layout of Platform.memory
      (** a memory the mapping rules populate has no layout *)
  | Bad_coverage of Platform.memory * string
      (** a layout's label set differs from the mapping rules' *)
  | Capacity of Platform.memory * int * int
      (** (memory, bytes used, bytes available) *)
  | Milp_residual of Milp.Problem.residual
      (** the claimed assignment violates the raw MILP model *)
  | Infeasible_transfer of string
      (** a projected transfer is not contiguous/transferable, or the
          solution is structurally broken (foreign labels, etc.) *)
  | Property of Time.t * string
      (** (pattern occurrence, failed LET property) *)
  | Deadline_miss of int * Time.t * Time.t
      (** (task id, analytic lambda, gamma bound) — beyond the decode
          tolerance of 1 us that absorbs float-microsecond rounding *)

val pp_violation : App.t -> Format.formatter -> violation -> unit

(** A granted certificate: every hard check passed. *)
type t = {
  source : source;
  checks : int;  (** individual checks evaluated *)
  warnings : violation list;
      (** soft findings — deadline misses of non-MILP sources *)
  time_s : float;  (** certification wall time *)
}

val pp : App.t -> Format.formatter -> t -> unit

(** [certify ?milp ~source app groups ~gamma sol] re-verifies [sol].
    [milp] supplies the raw model and the solver's claimed assignment for
    residual checking (only meaningful for MILP sources). Never raises:
    structural breakage inside the solution surfaces as violations. *)
val certify :
  ?milp:Formulation.instance * float array ->
  source:source ->
  App.t ->
  Groups.t ->
  gamma:Time.t array ->
  Solution.t ->
  (t, violation list) result
