(* Deadline carving: each item, as it starts, takes an equal share of
   the time remaining for the waves of work still unstarted. [unstarted]
   is decremented with a single atomic fetch-and-add, so the carve is
   race-free without a lock. *)

type ('a, 'b) outcome = {
  item : 'a;
  result : ('b, exn) result;
  deadline : float;
  time_s : float;
}

let carve ~global ~unstarted ~jobs =
  match global with
  | None -> infinity
  | Some g ->
    (* this item is one of [left] unstarted ones (itself included) *)
    let left = max 1 (Atomic.fetch_and_add unstarted (-1)) in
    let waves = (left + jobs - 1) / jobs in
    let now = Milp.Clock.now () in
    let remaining = Float.max 0.0 (g -. now) in
    Float.min g (now +. (remaining /. float_of_int waves))

let map ~pool ?deadline f items =
  let jobs = Pool.jobs pool in
  let unstarted = Atomic.make (List.length items) in
  (* Items that never ran (submission on a shut-down pool) still get a
     well-defined deadline — the global one they would have carved from.
     A NaN here would poison downstream reports and serialize as invalid
     JSON. *)
  let fallback = match deadline with Some g -> g | None -> infinity in
  let futures =
    List.map
      (fun item ->
        try
          Ok
            (Pool.async pool (fun () ->
                 let d = carve ~global:deadline ~unstarted ~jobs in
                 Obs.point ~cat:"sweep" "carve"
                   [
                     ("deadline_s", Obs.Float d);
                     ("budget_s", Obs.Float (d -. Milp.Clock.now ()));
                   ];
                 let t0 = Milp.Clock.now () in
                 let result =
                   Obs.span ~cat:"sweep" "item" (fun () ->
                       try Ok (f ~deadline:d item) with e -> Error e)
                 in
                 (result, d, Milp.Clock.now () -. t0)))
        with e -> Error e)
      items
  in
  List.map2
    (fun item fut ->
      match Result.bind fut Pool.await with
      | Ok (result, deadline, time_s) -> { item; result; deadline; time_s }
      | Error e ->
        { item; result = Error e; deadline = fallback; time_s = 0.0 })
    items futures
