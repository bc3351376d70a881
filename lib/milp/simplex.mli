(** Two-phase primal simplex for linear programs with bounded variables.

    Integrality requirements of the {!Problem} are ignored (this is the LP
    relaxation solver used by {!Branch_bound}). Nonbasic variables may rest
    at either bound, so binary-heavy models need no extra rows for their
    upper bounds. Bland's rule is enabled automatically after a stall to
    guarantee termination on degenerate instances.

    Pivot eliminations run over per-row nonzero supports, and the entering
    variable is chosen by a configurable pricing rule (devex partial
    pricing by default); see {!Simplex_core} for the kernel details. *)

(** Entering-variable pricing rule. [Devex] (the default) prices a bounded
    candidate list against reference weights; [Dantzig] is the classic
    most-negative-reduced-cost full scan; [Bland] is the smallest-index
    full scan. All three share the automatic Bland anti-cycling fallback,
    and all reach an optimal basis — only the pivot trajectory differs. *)
type pricing = Simplex_core.pricing = Dantzig | Devex | Bland

type result =
  | Optimal of { obj : float; x : float array }
  | Infeasible
  | Unbounded
  | Iteration_limit

(** [solve ?pricing ?counters ?bounds ?max_iters p] solves the LP
    relaxation of [p].

    [pricing] selects the entering-variable rule (default [Devex]).
    [counters] accumulates work statistics (pivots, pricing scans, ...)
    into a caller-supplied {!Simplex_core.counters} record.
    [bounds] optionally overrides every variable's bounds (two arrays of
    length [Problem.num_vars p]) — used by branch-and-bound nodes.
    [max_iters] caps total simplex pivots across both phases (default
    200_000); [deadline] is an absolute monotonic {!Clock.now} instant
    after which the solve aborts with [Iteration_limit]. *)
val solve :
  ?pricing:pricing ->
  ?counters:Simplex_core.counters ->
  ?bounds:float array * float array ->
  ?max_iters:int ->
  ?deadline:float ->
  Problem.t ->
  result

(** Outcome of a warm-capable solve. [wr_basis] is a compact
    {!Simplex_core.Basis} snapshot of the optimal basis (present exactly
    when [wr_result] is [Optimal]) that a later [solve_warm] on the same
    or a structurally identical problem can reoptimize from. [wr_warm]
    reports whether the supplied basis actually produced the answer —
    [false] means the solve ran (or fell back to) the cold path. *)
type warm_result = {
  wr_result : result;
  wr_basis : Simplex_core.Basis.t option;
  wr_warm : bool;
}

(** [solve_warm ?basis p] is {!solve} under the default [Devex] rule,
    with basis reuse: when [basis] is supplied and structurally
    compatible, the solve refactorizes the
    saved basis under the new [bounds] and reoptimizes with the bounded
    dual simplex followed by a primal cleanup — the warm claim is
    certified by the same full pricing scan as a cold solve, so results
    are interchangeable (tested). Any trouble on the warm path
    (structure mismatch, stalled or uncertifiable dual repair) falls
    back to the cold path transparently; only deadline expiry is
    surfaced as [Iteration_limit] without a retry. *)
val solve_warm :
  ?counters:Simplex_core.counters ->
  ?bounds:float array * float array ->
  ?max_iters:int ->
  ?deadline:float ->
  ?basis:Simplex_core.Basis.t ->
  Problem.t ->
  warm_result
