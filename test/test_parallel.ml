(* Tests for the lib/parallel subsystem: the supervised domain pool and
   batch sweeps. *)

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

(* The item's worker domain died and its crash-retry budget ran out. *)
let crashed (o : _ Sweep.outcome) =
  match o.Sweep.result with Error (Pool.Worker_crashed _) -> true | _ -> false

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

(* ------------------------------------------------------------------ *)
(* Worker-death supervision                                            *)
(* ------------------------------------------------------------------ *)

(* A task whose exception escapes the funnel (Poison) kills its worker
   domain. Await must surface Worker_crashed — never hang — and the
   supervisor must respawn the domain so capacity is preserved. *)
let test_pool_worker_death_no_hang () =
  with_pool ~jobs:1 (fun pl ->
      let doomed = Pool.async pl (fun () -> raise (Pool.Poison "chaos")) in
      (match Pool.await doomed with
       | Error (Pool.Worker_crashed { worker; cause }) ->
         check_bool "slot index in range" true (worker >= 0 && worker < 1);
         check_bool "cause names the poison" true
           (String.length cause > 0)
       | Error e ->
         Alcotest.fail ("expected Worker_crashed, got " ^ Printexc.to_string e)
       | Ok _ -> Alcotest.fail "poisoned task reported Ok");
      check_int "supervisor counted the death" 1 (Pool.crashes pl);
      (* jobs=1: if the dead domain were not replaced, this would hang *)
      let after = Pool.async pl (fun () -> 41 + 1) in
      check_int "respawned worker serves new tasks" 42 (await_ok after))

let test_pool_retry_on_crash () =
  with_pool ~jobs:1 (fun pl ->
      (* poison exactly once: the re-enqueued run must succeed *)
      let armed = Atomic.make true in
      let f =
        Pool.async ~retry_on_crash:1 pl (fun () ->
            if Atomic.exchange armed false then raise (Pool.Poison "once");
            7)
      in
      check_int "task survived one worker death" 7 (await_ok f);
      check_int "the death was still counted" 1 (Pool.crashes pl);
      (* budget exhausted: a persistent crasher ends as Worker_crashed *)
      let f = Pool.async ~retry_on_crash:2 pl (fun () -> raise (Pool.Poison "always")) in
      (match Pool.await f with
       | Error (Pool.Worker_crashed _) -> ()
       | Error e -> Alcotest.fail ("unexpected " ^ Printexc.to_string e)
       | Ok _ -> Alcotest.fail "persistent crasher reported Ok");
      check_int "every death counted" 4 (Pool.crashes pl))

let test_pool_shutdown_after_crash () =
  (* shutdown's joins must not raise on a pool that lost (and respawned)
     workers mid-flight *)
  let pl = Pool.create ~jobs:2 () in
  let doomed = Pool.async pl (fun () -> raise (Pool.Poison "boom")) in
  (match Pool.await doomed with
   | Error (Pool.Worker_crashed _) -> ()
   | _ -> Alcotest.fail "expected Worker_crashed");
  Pool.shutdown pl;
  Pool.shutdown pl (* still idempotent *)

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

(* A sweep item whose worker domain dies is transparently re-enqueued
   (default retry budget 1); a persistent crasher ends as a crashed
   outcome without aborting the sweep. *)
let test_sweep_worker_crash () =
  with_pool ~jobs:2 @@ fun pool ->
  let armed = Atomic.make true in
  let outs =
    Sweep.map ~pool
      (fun ~deadline:_ x ->
        if x = 2 && Atomic.exchange armed false then
          raise (Pool.Poison "sweep chaos");
        x * 10)
      [ 1; 2; 3 ]
  in
  List.iter
    (fun (o : _ Sweep.outcome) ->
      check_bool "retried item recovered" false (crashed o);
      match o.Sweep.result with
      | Ok v -> check_int "result intact" (10 * o.Sweep.item) v
      | Error e -> raise e)
    outs;
  (* with the retry budget at 0, the crash surfaces as an outcome *)
  let outs =
    Sweep.map ~pool ~retry_on_crash:0
      (fun ~deadline:_ x ->
        if x = 2 then raise (Pool.Poison "sweep chaos");
        x * 10)
      [ 1; 2; 3 ]
  in
  check_int "every item has an outcome" 3 (List.length outs);
  List.iter
    (fun (o : _ Sweep.outcome) ->
      if o.Sweep.item = 2 then
        check_bool "poisoned item marked crashed" true (crashed o)
      else begin
        check_bool "other items unaffected" false (crashed o);
        match o.Sweep.result with
        | Ok v -> check_int "result intact" (10 * o.Sweep.item) v
        | Error e -> raise e
      end)
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
        ] );
      ( "supervision",
        [
          Alcotest.test_case "worker death surfaces, never hangs" `Quick
            test_pool_worker_death_no_hang;
          Alcotest.test_case "crash retries re-enqueue the task" `Quick
            test_pool_retry_on_crash;
          Alcotest.test_case "shutdown after a crash" `Quick
            test_pool_shutdown_after_crash;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "map order and funneling" `Quick
            test_sweep_map_and_funnel;
          Alcotest.test_case "deadline carving" `Quick
            test_sweep_deadline_carving;
          Alcotest.test_case "dead pool keeps deadline finite" `Quick
            test_sweep_dead_pool_deadline;
          Alcotest.test_case "worker crash retried then surfaced" `Quick
            test_sweep_worker_crash;
        ] );
    ]
