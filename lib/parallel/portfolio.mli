(** Portfolio racing for MILP solves: diversified solver configurations
    attack the {e same} problem concurrently across domains.

    Each worker runs {!Milp.Branch_bound} under one {!config} — a
    branching perturbation seed, a warm/cold start choice and a pricing
    rule — against the same absolute monotonic deadline. Workers
    cooperate through a shared atomic incumbent cell: any worker's new
    incumbent immediately tightens every other worker's pruning cutoff
    (counted in {!stats} as incumbent exchanges, and by the workers as
    [Branch_bound.stats.foreign_prunes]), and the first worker to reach
    a {e conclusive} status — proven optimality, infeasibility or
    unboundedness — cancels the rest.

    Thread-confinement contract: each worker builds its own simplex
    state; the input [Problem.t] is shared {e read-only} (its [Vec]s and
    persistent [Linexpr]s are only mutated by model-building calls, which
    must not run while [solve] is in flight — the lazy Constraint-6
    driver in [Letdma.Solve] mutates the model strictly {e between}
    portfolio rounds).

    {b Deterministic mode} ([deterministic:true]) makes the returned
    solution bit-identical across runs at any jobs count: the config
    list is fixed (independent of the pool size), incumbent sharing and
    early cancellation are disabled so every config's search trajectory
    is exactly its sequential one, and the winner is chosen by a fixed
    tie-break (lowest-index config with status [Optimal]; see
    {!val-solve}). The guarantee holds provided the budget lets the
    designated configs finish — under a binding deadline the set of
    finished configs depends on scheduling. *)

type config = {
  name : string;
  branch_seed : int;  (** branching-order perturbation; 0 = classic rule *)
  use_warm : bool;  (** receive the caller's warm incumbent at start *)
  pricing : Milp.Simplex.pricing;  (** LP entering-variable rule *)
}

(** The default diversified panel: seeds differ, the first pair starts
    warm and the second cold; devex pricing dominates, with every fourth
    worker on Dantzig. *)
val default_configs : jobs:int -> config list

(** Per-worker outcome, in config order. *)
type report = {
  config : config;
  status : Milp.Branch_bound.status;
  obj : float option;
  nodes : int;
  time_s : float;
  foreign_prunes : int;  (** prunes on another worker's incumbent *)
  imported : int;  (** incumbents this worker pulled from the cell *)
  published : int;  (** incumbents this worker pushed to the cell *)
  crashed : bool;
      (** this config produced no solution — its worker domain died (and
          its crash-retry budget ran out) or its task raised *)
}

type stats = {
  winner : int option;  (** index into [reports] of the accepted worker *)
  reports : report list;
  incumbents_published : int;  (** cell updates, all workers + warm seed *)
  incumbents_imported : int;  (** cell reads that reached a worker *)
  foreign_prunes : int;  (** total cross-worker prune events *)
  time_s : float;
  jobs : int;
  deterministic : bool;
  worker_crashes : int;
      (** worker-domain deaths the pool supervisor handled during this
          race (respawn + retry, see {!Pool}) — can exceed the number of
          [crashed] reports when retries succeeded *)
}

val pp_stats : Format.formatter -> stats -> unit

type result = { solution : Milp.Branch_bound.solution; stats : stats }

(** [solve p] races the configs over [p].

    - [jobs] (default [Domain.recommended_domain_count ()]) sizes the
      worker pool when [pool] is not supplied;
    - [configs] defaults to {!default_configs} over the jobs count — or
      over a {e fixed} panel of 4 in deterministic mode, so the racing
      width never changes the answer;
    - [deadline] (absolute, {!Milp.Clock}) is handed verbatim to every
      worker; [time_limit_s] (default 60) is the relative fallback;
    - [incumbent] warm-starts the [use_warm] configs and, in
      non-deterministic mode, pre-seeds the shared cell so every worker
      starts with the same cutoff;
    - [cancel] is an external abort switch: cancelling it stops every
      worker at its next node (the race's own first-conclusive
      cancellation still applies on top). In deterministic mode the
      token is still polled, but cancelling it obviously forfeits the
      bit-identity guarantee for that run;
    - [presolve] (default [true]) runs {!Milp.Presolve} once at the root
      and hands every worker the reduced problem with its own presolve
      disabled (the reduction is deterministic, so this also preserves
      deterministic-mode bit-identity); the reductions are reported in
      the winning solution's [stats.lp]. A presolve infeasibility proof
      returns [Infeasible] without launching any worker.
    - [chaos] is a fault-injection hook called with the worker's config
      index at task start, before any solving; raising {!Pool.Poison}
      from it kills that worker's domain. Each worker task is submitted
      with one crash retry, so a one-shot injection (track "already
      poisoned" in the hook) still yields a completed solve — the
      supervisor respawns the domain and re-runs the config. Test-only.

    Crash handling: a worker whose domain dies (out of retries) is
    reported with [crashed = true] and status [Unknown]; the race
    completes on the surviving workers. Only if {e every} worker
    crashed is the first exception re-raised.

    Winner selection: non-deterministic mode returns the first worker
    with a conclusive status (cancelling the rest), else the best
    incumbent in the problem's sense, ties to the lowest config index.
    Deterministic mode returns the lowest-index config reporting
    [Optimal], else best incumbent / lowest index, else the most
    informative failure status. *)
val solve :
  ?pool:Pool.t ->
  ?jobs:int ->
  ?configs:config list ->
  ?deterministic:bool ->
  ?cancel:Pool.Token.t ->
  ?deadline:float ->
  ?time_limit_s:float ->
  ?node_limit:int ->
  ?incumbent:float array ->
  ?presolve:bool ->
  ?chaos:(int -> unit) ->
  Milp.Problem.t ->
  result
