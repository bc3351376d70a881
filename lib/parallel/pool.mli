(** Fixed-size supervised domain pool: a work queue served by OCaml 5
    domains.

    The pool holds no global state — tests and nested users can spin
    pools up and down freely; every pool owns its domains and
    {!shutdown} joins them all.
    Exceptions raised by a task are funneled into its future and
    surfaced as [Error] by {!await} — a crashing task can neither kill a
    worker domain nor be silently lost.

    {b Supervision.} An exception that escapes the funnel ({!Poison} by
    construction, or a bug in the pool machinery) kills the worker's
    domain body. The supervisor — a wrapper around every spawned domain —
    then settles the in-flight task (re-enqueue when the submitter asked
    for crash retries, otherwise [Error Worker_crashed]), spawns a
    replacement domain so capacity is preserved, bumps {!crashes}, emits
    a ["pool"/"worker.respawn"] {!Obs} point, and exits the dead domain
    cleanly — so {!await} never hangs on a dead worker's task and
    {!shutdown}'s joins never raise.

    Tasks must not block on futures of the same pool (a task awaiting a
    task behind it in the queue of a saturated pool deadlocks); the
    intended users — portfolio racing and batch sweeps — only await from
    the submitting (non-worker) domain. *)

(** Cancellation token: a lock-free flag shared between a coordinator and
    any number of workers polling it. *)
module Token : sig
  type t

  val create : unit -> t
  val cancel : t -> unit
  val cancelled : t -> bool
end

(** [Poison msg] is the one exception the task funnel deliberately lets
    escape: raising it from a task kills the worker domain's body, which
    is exactly what chaos tests (and the supervisor's regression suite)
    need to simulate a dead worker. *)
exception Poison of string

(** Surfaced through a task's future when its worker domain died without
    completing it (and no crash retries remained): [worker] is the slot
    index, [cause] the printed escaping exception. *)
exception Worker_crashed of { worker : int; cause : string }

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

(** Worker-domain deaths handled by the supervisor so far. *)
val crashes : t -> int

(** Submit a task; raises [Invalid_argument] after {!shutdown}.
    [retry_on_crash] (default 0) is the number of times the task is
    silently re-enqueued if the worker running it dies; when the budget
    is exhausted the future is fulfilled with [Error Worker_crashed].
    Only crash deaths consume it — an exception funneled into the future
    is never retried by the pool. *)
val async : ?retry_on_crash:int -> t -> (unit -> 'a) -> 'a future

(** Block until the task finishes. [Error e] carries the task's
    uncaught exception. Safe to call repeatedly. *)
val await : 'a future -> ('a, exn) result

(** {!await}, re-raising the task's exception. *)
val await_exn : 'a future -> 'a

(** [map t f xs] runs [f x] for every element on the pool and waits for
    them all; results are in input order. *)
val map : t -> ('a -> 'b) -> 'a list -> ('b, exn) result list

(** Drain the queue, join every worker domain. Idempotent. Tasks already
    queued are still executed before the workers exit. *)
val shutdown : t -> unit

(** [with_pool ?jobs f] runs [f] on a fresh pool and guarantees
    {!shutdown}, also on exception. *)
val with_pool : ?jobs:int -> (t -> 'a) -> 'a
