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

(** [map ~pool f items] runs [f ~deadline item] for every item on
    [pool], returning outcomes in input order.

    - [deadline] is the shared absolute ({!Milp.Clock}) budget. Each
      item receives [min deadline (now +. remaining /. waves)], where
      [waves] is the number of pool-width batches the {e unstarted}
      items still form — so the remaining budget is split fairly among
      the work left, and slack released by fast items flows to later
      ones. Without [deadline] every item gets [infinity].

    Item exceptions are funneled into their outcome ([Error]); one
    failing instance never aborts the sweep. Work submitted to a
    shut-down pool ({!Pool.async} raises [Invalid_argument]) has an
    [Error] outcome with the global deadline (or [infinity]) recorded —
    the [deadline] field is always well-defined, never NaN. *)
val map :
  pool:Pool.t ->
  ?deadline:float ->
  (deadline:float -> 'a -> 'b) ->
  'a list ->
  ('a, 'b) outcome list
