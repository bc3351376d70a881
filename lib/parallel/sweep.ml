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

let crashed o =
  match o.result with Error (Pool.Worker_crashed _) -> true | _ -> false

let map ?pool ?jobs ?deadline ?(retry_on_crash = 1) f items =
  let with_p g =
    match pool with Some pl -> g pl | None -> Pool.with_pool ?jobs g
  in
  with_p @@ fun pl ->
  let jobs = Pool.jobs pl in
  let unstarted = Atomic.make (List.length items) in
  (* Items that never ran (pool machinery failure: submission on a dead
     pool, a lost future) still get a well-defined deadline — the global
     one they would have carved from. A NaN here would poison downstream
     reports and serialize as invalid JSON. *)
  let fallback = match deadline with Some g -> g | None -> infinity in
  let futures =
    List.map
      (fun item ->
        try
          Ok
            (Pool.async ~retry_on_crash pl (fun () ->
                 let d = carve ~global:deadline ~unstarted ~jobs in
                 Obs.point ~cat:"sweep" "carve"
                   [
                     ("deadline_s", Obs.Float d);
                     ("budget_s", Obs.Float (d -. Milp.Clock.now ()));
                   ];
                 let t0 = Milp.Clock.now () in
                 let result =
                   Obs.span ~cat:"sweep" "item" (fun () ->
                       try Ok (f ~deadline:d item)
                       with
                       (* [Poison] must keep its pool-level meaning — kill
                          the worker domain so supervision (respawn +
                          [retry_on_crash]) takes over — not be funneled
                          into the outcome like an item failure *)
                       | Pool.Poison _ as e -> raise e
                       | e -> Error e)
                 in
                 (result, d, Milp.Clock.now () -. t0)))
        with e -> Error e)
      items
  in
  List.map2
    (fun item fut ->
      match fut with
      | Error e -> { item; result = Error e; deadline = fallback; time_s = 0.0 }
      | Ok fut -> (
        match Pool.await fut with
        | Ok (result, deadline, time_s) -> { item; result; deadline; time_s }
        | Error e ->
          (* pool machinery itself failed *)
          { item; result = Error e; deadline = fallback; time_s = 0.0 }))
    items futures
