(** Batch sweep runner: farm independent instances over a domain pool
    under one shared absolute deadline.

    A sweep maps one function over {e many} independent instances —
    the service's request batches — and carves
    the global time budget into per-item deadlines so early items
    cannot starve late ones. *)

type ('a, 'b) outcome = {
  item : 'a;
  result : ('b, exn) result;  (** [Error e] = the item's function raised *)
  deadline : float;  (** absolute per-item deadline the item ran under *)
  time_s : float;  (** wall time the item actually took *)
}

(** [map f items] runs [f ~deadline item] for every item on a pool,
    returning outcomes in input order.

    - [jobs] (default [Domain.recommended_domain_count ()]) sizes the
      pool when [pool] is not supplied;
    - [deadline] is the shared absolute ({!Milp.Clock}) budget. Each
      item receives [min deadline (now +. remaining /. waves)], where
      [waves] is the number of pool-width batches the {e unstarted}
      items still form — so the remaining budget is split fairly among
      the work left, and slack released by fast items flows to later
      ones. Without [deadline] every item gets [infinity].

    Item exceptions are funneled into their outcome ([Error]); one
    crashing instance never aborts the sweep. The only exception that is
    {e not} funneled is {!Pool.Poison}, which keeps its pool-level
    meaning — it kills the worker domain so supervision (respawn +
    crash retry) takes over, exactly as for any other pool task. If the pool machinery
    itself fails (e.g. submission on a shut-down pool), the outcome is
    [Error] with the global deadline (or [infinity]) recorded — the
    [deadline] field is always well-defined, never NaN.

    [retry_on_crash] (default 1) is handed to {!Pool.async}: an item
    whose worker {e domain} dies is transparently re-enqueued that many
    times before its outcome becomes [Error Worker_crashed] (detect with
    {!crashed}). Note a retried item re-carves its deadline when it
    re-runs. *)
val map :
  ?pool:Pool.t ->
  ?jobs:int ->
  ?deadline:float ->
  ?retry_on_crash:int ->
  (deadline:float -> 'a -> 'b) ->
  'a list ->
  ('a, 'b) outcome list

val crashed : ('a, 'b) outcome -> bool
(** The item's worker domain died and its crash-retry budget ran out
    ([result] is [Error Pool.Worker_crashed]). *)
