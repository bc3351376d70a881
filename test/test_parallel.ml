(* Tests for the lib/parallel subsystem: the domain pool and batch
   sweeps. *)

module Pool = Parallel.Pool
module Sweep = Parallel.Sweep

exception Boom

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A fresh pool for [f], shut down also when [f] raises. *)
let with_pool ~jobs f =
  let pl = Pool.create ~jobs () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pl) (fun () -> f pl)

(* The task's value, re-raising its exception. *)
let await_ok fut = match Pool.await fut with Ok v -> v | Error e -> raise e

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let test_pool_map_order () =
  with_pool ~jobs:4 (fun pl ->
      check_int "pool size" 4 (Pool.jobs pl);
      let futures =
        List.map
          (fun x -> Pool.async pl (fun () -> x * x))
          [ 1; 2; 3; 4; 5; 6; 7; 8 ]
      in
      Alcotest.(check (list int))
        "squares in input order"
        [ 1; 4; 9; 16; 25; 36; 49; 64 ]
        (List.map await_ok futures))

let test_pool_exception_funnel () =
  with_pool ~jobs:2 (fun pl ->
      let bad = Pool.async pl (fun () -> raise Boom) in
      let good = Pool.async pl (fun () -> 41 + 1) in
      (match Pool.await bad with
       | Error Boom -> ()
       | Error e -> Alcotest.fail ("unexpected exception " ^ Printexc.to_string e)
       | Ok _ -> Alcotest.fail "crashing task reported Ok");
      (* the worker that ran the crashing task must still be alive *)
      check_int "pool survives a crash" 42 (await_ok good))

let test_pool_shutdown () =
  let pl = Pool.create ~jobs:1 () in
  let f = Pool.async pl (fun () -> 7) in
  Pool.shutdown pl;
  Pool.shutdown pl (* idempotent *);
  check_int "queued task still ran" 7 (await_ok f);
  (match Pool.async pl (fun () -> 0) with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "async after shutdown must raise");
  match Pool.create ~jobs:0 () with
  | exception Invalid_argument _ -> ()
  | pl ->
    Pool.shutdown pl;
    Alcotest.fail "jobs=0 must be rejected"

(* No exception a task raises leaves the funnel, not even the runtime's
   own: with one worker, each comes back as its task's [Error], and the
   task after them still runs, so that worker is alive. *)
let test_pool_funnels_every_exception () =
  let pl = Pool.create ~jobs:1 () in
  let raised =
    [ Stack_overflow; Out_of_memory; Exit; Failure "f"; Invalid_argument "i" ]
  in
  let futures =
    List.map (fun e -> (e, Pool.async pl (fun () -> raise e))) raised
  in
  List.iter
    (fun (e, fut) ->
      match Pool.await fut with
      | Error e' when e' = e -> ()
      | Error e' ->
        Alcotest.failf "%s came back as %s" (Printexc.to_string e)
          (Printexc.to_string e')
      | Ok () -> Alcotest.failf "%s came back Ok" (Printexc.to_string e))
    futures;
  check_int "the worker still serves" 42
    (await_ok (Pool.async pl (fun () -> 41 + 1)));
  Pool.shutdown pl;
  Pool.shutdown pl (* idempotent *)

(* ------------------------------------------------------------------ *)
(* Sweep                                                               *)
(* ------------------------------------------------------------------ *)

let test_sweep_map_and_funnel () =
  let outs =
    with_pool ~jobs:3 @@ fun pool ->
    Sweep.map ~pool
      (fun ~deadline:_ x -> if x = 3 then raise Boom else x * 2)
      [ 1; 2; 3; 4 ]
  in
  Alcotest.(check (list int))
    "items in input order" [ 1; 2; 3; 4 ]
    (List.map (fun (o : _ Sweep.outcome) -> o.Sweep.item) outs);
  List.iter
    (fun (o : _ Sweep.outcome) ->
      match (o.Sweep.item, o.Sweep.result) with
      | 3, Error Boom -> ()
      | 3, _ -> Alcotest.fail "item 3 must funnel Boom"
      | i, Ok v -> check_int "doubled" (2 * i) v
      | _, Error e -> raise e)
    outs

let test_sweep_deadline_carving () =
  with_pool ~jobs:2 @@ fun pool ->
  let global = Milp.Clock.now () +. 60.0 in
  let outs =
    Sweep.map ~pool ~deadline:global
      (fun ~deadline x -> (deadline, x))
      [ 1; 2; 3; 4; 5 ]
  in
  List.iter
    (fun (o : _ Sweep.outcome) ->
      match o.Sweep.result with
      | Ok (d, _) ->
        check_bool "per-item deadline is finite" true (Float.is_finite d);
        check_bool "never beyond the global deadline" true (d <= global +. 1e-9);
        check_bool "matches the recorded deadline" true (d = o.Sweep.deadline)
      | Error e -> raise e)
    outs;
  (* without a global deadline, items run unbounded *)
  let outs = Sweep.map ~pool (fun ~deadline x -> (deadline, x)) [ 1; 2 ] in
  List.iter
    (fun (o : _ Sweep.outcome) ->
      match o.Sweep.result with
      | Ok (d, _) -> check_bool "unbounded" true (d = infinity)
      | Error e -> raise e)
    outs

(* Regression (PR 4): the pool-failure branch stamped [deadline = nan]
   into the outcome (global -. now misapplied), poisoning any downstream
   arithmetic. A submission failure must record the carved/global
   deadline instead — always well-defined, never NaN. *)
let test_sweep_dead_pool_deadline () =
  let dead = Pool.create ~jobs:1 () in
  Pool.shutdown dead;
  let global = Milp.Clock.now () +. 60.0 in
  let outs =
    Sweep.map ~pool:dead ~deadline:global (fun ~deadline:_ x -> x) [ 1; 2; 3 ]
  in
  check_int "every item has an outcome" 3 (List.length outs);
  List.iter
    (fun (o : _ Sweep.outcome) ->
      check_bool "submission failure funneled" true
        (Result.is_error o.Sweep.result);
      check_bool "deadline is not NaN" false (Float.is_nan o.Sweep.deadline);
      check_bool "records the global deadline" true
        (o.Sweep.deadline = global))
    outs;
  (* without a global deadline the fallback is [infinity], still not NaN *)
  let dead = Pool.create ~jobs:1 () in
  Pool.shutdown dead;
  let outs = Sweep.map ~pool:dead (fun ~deadline:_ x -> x) [ 1 ] in
  List.iter
    (fun (o : _ Sweep.outcome) ->
      check_bool "unbounded fallback" true (o.Sweep.deadline = infinity))
    outs

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map preserves order" `Quick test_pool_map_order;
          Alcotest.test_case "exception funneling" `Quick
            test_pool_exception_funnel;
          Alcotest.test_case "shutdown" `Quick test_pool_shutdown;
          Alcotest.test_case "every exception is funneled" `Quick
            test_pool_funnels_every_exception;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "map order and funneling" `Quick
            test_sweep_map_and_funnel;
          Alcotest.test_case "deadline carving" `Quick
            test_sweep_deadline_carving;
          Alcotest.test_case "dead pool keeps deadline finite" `Quick
            test_sweep_dead_pool_deadline;
        ] );
    ]
