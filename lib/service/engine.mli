(** Batch execution core of the solver service.

    One {!process} call takes a parsed request batch (order preserved)
    and returns one rendered response line per request:

    - {b batching}: the batch's solve requests run on a
      {!Parallel.Pool} through {!Parallel.Sweep.map}, which carves one
      shared absolute deadline (the latest per-request deadline in the
      batch) into fair per-item deadlines — a queued request can never
      be starved by the requests ahead of it, and each item is further
      capped by its own [deadline_s];
    - {b caching}: each MILP request is fingerprinted
      ({!Resilience.Checkpoint.fingerprint} of the built model) and
      looked up in a bounded LRU ({!Cache}). An exact hit replays the
      stored solution fields byte-for-byte (["cache":"hit"], zero
      pivots); a miss whose family (workload/seed/objective, ignoring
      the perturbable [alpha]) has a cached sibling gets that sibling's
      plan as its MIP start (["cache":"warm"]): when the plan passes the
      new model's rows, the search starts from it as the incumbent, and
      under NO-OBJ it is then proven optimal with no node and no pivot;
      when it fails them, the request starts from the heuristic plan,
      as a miss does.
      Everything else (["cache":"miss"]) starts from {!Letdma.Solve}'s
      heuristic MIP start, which NO-OBJ proves the same way;
    - {b preparation}: every solve request builds its workload with
      {!Workload.make} and goes through {!Letdma.Experiment.prepare}, so
      a configuration the CLI turns away gets the same message here, as
      an error response;
    - {b QoS}: the request's class and the batch's load factor pick the
      solving tier — a rung of the degradation ladder — through
      {!Qos.plan}; shed requests are answered with the ladder's fallback
      plan ({!Letdma.Pipeline.fallback}) instead of queueing;
    - {b failures}: a request whose handling raises is answered with an
      ["internal error"] line; the pool funnels the exception, so the
      engine and its other requests are unaffected.

    A [stats] request is answered from the same queue (so with a
    sequential pool it observes every earlier request of its batch)
    with a snapshot of engine counters, cache and pool state. Its
    ["pool_crashes"] member is always 0: no worker domain dies before
    {!shutdown}.

    Thread-safety: counters and the cache are mutex-guarded; one
    engine serves one daemon loop but its work runs on pool domains. *)

type t

val create : ?jobs:int -> ?cache_capacity:int -> unit -> t
(** [jobs] sizes the worker pool (default
    [Domain.recommended_domain_count ()]); [cache_capacity] bounds the
    LRU (default 64). *)

val process :
  t -> (Protocol.request, Protocol.error) Stdlib.result list -> string list
(** Execute one batch; returns rendered response lines, one per
    request, in request order. Never raises on request content —
    malformed entries yield error lines. *)

val cache_stats : t -> Cache.stats

val pool_jobs : t -> int

val shutdown : t -> unit
(** Join the worker pool. The engine must not be used afterwards. *)
