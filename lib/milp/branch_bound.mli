(** Best-first branch-and-bound MILP solver on top of {!Simplex}.

    This is the substrate standing in for IBM CPLEX, which the paper uses
    to solve its formulation (see DESIGN.md, substitution 1). It supports
    warm incumbents, node/time limits with incumbent reporting (the
    behaviour the paper relies on for its OBJ-DMAT timeout results), and
    reports proof bounds and relative gaps. It branches on the most
    fractional integer variable (integrality tolerance 1e-6), and
    {!hooks} let a caller cancel the search and observe its nodes,
    incumbents and warm starts.

    When {!Problem.integral_objective} holds for the (presolved) model,
    every node's LP bound [b] is read as [ceil (b - 1e-4)] and the
    incumbent, within [1e-5] of an integer, as that integer, wherever the
    search prunes and in the final bound, gap and status: an OBJ-DMAT
    bound of 2.44 under an incumbent of 3 closes its subtree. The rule
    is re-derived from the model, so checkpoints are unaffected.

    A caller that knows a proven bound on the optimum passes it as
    [?bound] (see {!solve}); the search then reads every node's bound as
    max(LP bound, [bound]). *)

type status =
  | Optimal     (** incumbent proven optimal *)
  | Feasible    (** limit hit with an incumbent (paper's timeout case) *)
  | Infeasible
  | Unbounded
  | Unknown     (** limit hit before any incumbent was found *)

(** ["optimal"], ["feasible"], ["infeasible"], ["unbounded"] or
    ["unknown"]: the status as the CLI and the service print it. *)
val status_name : status -> string

(** LP-engine work counters aggregated over the whole search, plus the
    root presolve reductions: the machine-readable account of where the
    solve time went. *)
type lp_stats = {
  lp_pivots : int;             (** primal simplex pivots (phases I+II) *)
  lp_dual_pivots : int;        (** dual-simplex warm-restart pivots *)
  lp_pricing_scanned : int;    (** candidate columns priced *)
  lp_pricing_refreshes : int;  (** pricing candidate-list rebuild scans *)
  lp_warm_hits : int;          (** node LPs answered from a restored basis *)
  lp_warm_misses : int;        (** node LPs that wanted a basis but went cold *)
  lp_dual_pivots_saved : int;
      (** estimated pivots avoided by warm starts: for each warm hit, the
          first cold solve's pivot count minus the hit's actual spend *)
  lp_basis_evictions : int;    (** bases dropped by the bounded pool's LRU *)
  lp_time_s : float;           (** wall-clock spent inside the LP kernel *)
  presolve_rounds : int;
  presolve_rows_dropped : int;
  presolve_bounds_tightened : int;
}

val lp_zero : lp_stats
val lp_add : lp_stats -> lp_stats -> lp_stats

type stats = {
  nodes : int;
  simplex_solves : int;
  time_s : float;
  best_bound : float;
      (** proven bound on the optimum, in the problem's own sense
          (rounded to an integer on integral objectives) *)
  gap : float option;
      (** (incumbent − bound) / max(1, |incumbent|): relative for
          objectives of magnitude at least 1, absolute below;
          [Some 0.] when optimal *)
  lp : lp_stats;
}

type solution = {
  status : status;
  obj : float option;
  x : float array option;
  stats : stats;
}

(** Search hooks. All callbacks run on the solving domain:

    - [should_stop] is polled at every node; returning [true] aborts the
      search as if the time limit had expired (the best incumbent so far
      is still reported);
    - [on_incumbent ~obj x] fires whenever the search improves its
      incumbent; [x] is a fresh copy the callee may keep, [obj] is in the
      problem's own sense;
    - [on_node] fires once per explored node, after its LP relaxation:
      [node] is the 1-based exploration index, [depth] the node's depth,
      [bound] the LP relaxation objective ([None] if the LP was
      infeasible/unbounded/cut off), [pivots] the simplex pivots (primal
      + dual) that LP solve cost. Observability taps (see [Obs]) hang
      off this callback; [no_hooks] makes it free.

    Objectives flow through the hooks in the problem's original
    (min/max) sense. *)

(** Basis-pool lifecycle events, reported through {!hooks}[.on_basis]:
    a node LP reoptimized from its parent's basis ([Warm_hit]), wanted
    one but fell back to a cold solve ([Warm_miss]), or the bounded pool
    evicted its least-recently-used basis ([Evict]). *)
type basis_event = Warm_hit | Warm_miss | Evict

type hooks = {
  should_stop : unit -> bool;
  on_incumbent : obj:float -> float array -> unit;
  on_node : node:int -> depth:int -> bound:float option -> pivots:int -> unit;
  on_basis : node:int -> basis_event -> unit;
      (** fires on warm-start bookkeeping events; [node] is the 1-based
          index of the node being solved (for [Evict], the node whose
          pool insertion forced the eviction) *)
}

(** Inert hooks: never stop, observe nothing. *)
val no_hooks : hooks

(** {1 Checkpointing}

    A {!checkpoint} is a complete snapshot of the search's mutable state:
    the open-node frontier (with each node's LP bound, heap tie-breaker
    and branching decisions), the incumbent, the trajectory counters and
    the warm-basis pool. Resuming from it with the same problem and the
    same solver parameters continues the search along a bit-identical
    trajectory — same node order, same LP pivot counts, same final
    objective — because every input to the deterministic search loop is
    restored, including the basis pool (a warm and a cold LP solve can
    land on different optimal vertices of a degenerate LP, so the pool is
    part of the trajectory).

    Wall-clock fields ([ck_lp_time_s], and [stats.time_s] of the resumed
    solve) are cumulative across the interrupted segments and are the
    only fields exempt from the bit-identity claim. *)

(** One open node of the frontier. [ck_prio]/[ck_node_tie] are the heap
    key (parent LP bound, lifted to the caller's [bound], in minimization
    sense; insertion tie-breaker);
    [ck_overrides] are the branching bound changes relative to the root,
    as [(var, lo, hi)] with one-sided infinities. *)
type ck_node = {
  ck_prio : float;
  ck_node_tie : int;
  ck_depth : int;
  ck_parent : int;
  ck_overrides : (int * float * float) list;
}

type checkpoint = {
  ck_nodes : int;  (** nodes explored so far *)
  ck_tie : int;  (** heap tie-breaker high-water mark *)
  ck_simplex_solves : int;
  ck_best : (float * float array) option;
      (** incumbent, objective in the problem's original sense *)
  ck_cold_ref_pivots : int option;
  ck_counters : Simplex_core.counters;
  ck_lp_time_s : float;
  ck_frontier : ck_node list;  (** canonical pop order *)
  ck_pool : (int * Simplex_core.Basis.t * int * int) list;
      (** warm-basis pool entries [(node_id, basis, refcount, lru_tick)],
          sorted by node id *)
  ck_pool_tick : int;
}

(** [solve ?time_limit_s ?deadline ?node_limit ?incumbent ?bound ?hooks p]
    solves the MILP [p].

    - [deadline]: absolute monotonic {!Clock.now} instant after which the
      best incumbent is returned with status [Feasible]. When given it
      takes precedence over [time_limit_s].
    - [time_limit_s] (default 60): relative convenience form, equivalent
      to [deadline = Clock.now () +. time_limit_s].
    - [incumbent]: a feasible assignment used as the initial cutoff.
    - [bound]: a proven bound on the optimum, in the problem's own sense,
      that the caller knows from the model (a lower bound when
      minimizing). It is not a tuning option: a wrong one makes the
      search stop early with a wrong [Optimal]. Default: the constant of
      a constant objective, no bound otherwise. Every node's bound is
      read as max(LP bound, [bound]) wherever the search prunes, orders
      its frontier and reports [best_bound] and [gap], so the search ends
      as soon as an incumbent meets it. A checked [incumbent] that no
      such node can beat is returned as [Optimal] with 0 nodes, before
      presolve and without an LP. A resumed search must be passed the
      same bound.
    - [presolve] (default [true]): run {!Presolve.run} once at the root
      and search the reduced problem. The reduction keeps every variable
      (same ids) and only tightens implied bounds / drops redundant
      rows, so the feasible set is unchanged and solutions need no
      mapping back; reductions are reported in [stats.lp].
    - [basis_pool] (default 128): capacity of the parent-basis pool, in
      bases. Each explored node snapshots its optimal basis so both
      children can dual-simplex reoptimize from it instead of solving
      cold; when the pool is full the least-recently-touched basis is
      evicted (deterministically — ties break on the lower node id) and
      its orphaned children fall back to the cold path, counted in
      [lp_basis_evictions]. [0] disables warm starts entirely (the cold
      baseline of the warm-start pivot test). A basis never leaves the
      search: the root LP always solves cold, and only a [resume]
      checkpoint brings bases in from outside.
    - [max_lp_iters]: per-node LP iteration cap; a node whose LP hits it
      ends the search like a time limit (the incumbent is kept, a final
      checkpoint is emitted): a cap is a limit, never a crash.
    - [checkpoint_every] (default 0 = off): emit a checkpoint through
      [on_checkpoint] every that many explored nodes.
    - [on_checkpoint]: receives each snapshot. Regardless of cadence, a
      final checkpoint is emitted when the search stops inconclusively
      (deadline, node limit, [should_stop], LP iteration cap) — never on
      a conclusive exit (Optimal/Infeasible/Unbounded). The popped node
      being explored at interrupt time is pushed back first, so the
      serialized frontier is complete.
    - [resume]: rehydrate all mutable state from a checkpoint instead of
      starting at the root. The caller must pass the same problem and
      parameters as the interrupted solve (see [Resilience.Checkpoint]
      for the fingerprint that enforces the problem part). Raises
      [Invalid_argument "checkpoint: ..."] when the incumbent does not
      have one entry per variable or misses a row, bound or integrality
      requirement of the problem by more than 1e-5, or a frontier
      override names a variable the problem does not have. *)
val solve :
  ?time_limit_s:float ->
  ?deadline:float ->
  ?node_limit:int ->
  ?incumbent:float array ->
  ?bound:float ->
  ?hooks:hooks ->
  ?presolve:bool ->
  ?basis_pool:int ->
  ?max_lp_iters:int ->
  ?checkpoint_every:int ->
  ?on_checkpoint:(checkpoint -> unit) ->
  ?resume:checkpoint ->
  Problem.t ->
  solution
