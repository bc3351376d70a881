(** Bounded, fingerprint-keyed warm cache.

    The key is {!Resilience.Checkpoint.fingerprint} of the built MILP —
    an FNV-1a hash over the model's LP-format text — so two requests
    share an entry {e iff} they denote byte-for-byte the same model; a
    fingerprint mismatch can never serve a stale solution, whatever the
    request said about itself.

    Each entry also carries a {e family} tag (workload/seed/objective,
    {e without} the perturbable parameters): a miss whose family has a
    cached sibling is a {e perturbed repeat}, and the sibling's payload
    (in practice its solved plan) is the MIP start instead of the
    heuristic's plan.

    Eviction is least-recently-used with a strictly increasing use
    tick, so it is deterministic for a fixed request order — the
    property the test suite pins with QCheck. All operations are
    mutex-guarded (entries are consulted and inserted from pool worker
    domains) and emit ["cache"/"hit"|"miss"|"warm_seed"|"evict"] {!Obs}
    points. *)

type 'v t

val create : capacity:int -> 'v t
(** [capacity] must be >= 1 (raises [Invalid_argument] otherwise). *)

val find : 'v t -> string -> 'v option
(** [find t fingerprint] returns the exact-match payload and bumps its
    recency; counts a hit or a miss. *)

val find_family : 'v t -> family:string -> (string * 'v) option
(** [find_family t ~family] is the most recently used entry of
    [family] (its fingerprint and payload), for warm seeding after
    {!find} missed. Does not bump recency; counts a warm seed when it
    returns [Some]. *)

val add : 'v t -> fingerprint:string -> family:string -> 'v -> unit
(** Insert (or replace) the entry, evicting the least recently used
    one when over capacity. *)

val size : 'v t -> int

type stats = {
  hits : int;
  misses : int;
  warm_seeds : int;
  evictions : int;
  size : int;
  capacity : int;
}

val stats : 'v t -> stats
