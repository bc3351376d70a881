(** Fixed-size domain pool: a work queue served by OCaml 5 domains.

    The pool holds no global state — tests and nested users can spin
    pools up and down freely; every pool owns its domains and
    {!shutdown} joins them all.
    Every exception raised by a task, [Stack_overflow] and
    [Out_of_memory] included, is funneled into its future and surfaced
    as [Error] by {!await}: a failing task can neither kill a worker
    domain nor be silently lost. Workers therefore exit only at
    {!shutdown}.

    Tasks must not block on futures of the same pool (a task awaiting a
    task behind it in the queue of a saturated pool deadlocks); the
    intended users — batch sweeps and the service's request pool — only
    await from the submitting (non-worker) domain. *)

type t

(** Result handle of an {!async} task. *)
type 'a future

(** [validate_jobs j] is the one place a worker count is judged: [Ok j]
    when [j >= 1], otherwise [Error "jobs must be >= 1, got <j>"].
    {!create} enforces it; CLI front ends reuse it so every subcommand
    rejects a bad [--jobs] with the same message. *)
val validate_jobs : int -> (int, string) result

(** [create ?jobs ()] spawns [jobs] worker domains (default
    [Domain.recommended_domain_count ()], min 1); raises
    [Invalid_argument] when [jobs] fails {!validate_jobs}. *)
val create : ?jobs:int -> unit -> t

val jobs : t -> int

(** Submit a task; raises [Invalid_argument] after {!shutdown}. *)
val async : t -> (unit -> 'a) -> 'a future

(** Block until the task finishes. [Error e] carries the task's
    uncaught exception. Safe to call repeatedly. *)
val await : 'a future -> ('a, exn) result

(** Drain the queue, join every worker domain. Idempotent. Tasks already
    queued are still executed before the workers exit. *)
val shutdown : t -> unit
