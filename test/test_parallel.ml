(* Tests for the lib/parallel subsystem: domain pool, portfolio racing,
   batch sweeps — plus the sequential-vs-portfolio equivalence property
   over MILPs built from random Workload.Generator instances. *)

open Let_sem

module P = Milp.Problem
module L = Milp.Linexpr
module B = Milp.Branch_bound
module Pool = Parallel.Pool
module Portfolio = Parallel.Portfolio
module Sweep = Parallel.Sweep

exception Boom

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let test_pool_map_order () =
  Pool.with_pool ~jobs:4 (fun pl ->
      check_int "pool size" 4 (Pool.jobs pl);
      let rs = Pool.map pl (fun x -> x * x) [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
      Alcotest.(check (list int))
        "squares in input order"
        [ 1; 4; 9; 16; 25; 36; 49; 64 ]
        (List.map (function Ok v -> v | Error e -> raise e) rs))

let test_pool_exception_funnel () =
  Pool.with_pool ~jobs:2 (fun pl ->
      let bad = Pool.async pl (fun () -> raise Boom) in
      let good = Pool.async pl (fun () -> 41 + 1) in
      (match Pool.await bad with
       | Error Boom -> ()
       | Error e -> Alcotest.fail ("unexpected exception " ^ Printexc.to_string e)
       | Ok _ -> Alcotest.fail "crashing task reported Ok");
      (* the worker that ran the crashing task must still be alive *)
      check_int "pool survives a crash" 42 (Pool.await_exn good))

let test_pool_shutdown () =
  let pl = Pool.create ~jobs:1 () in
  let f = Pool.async pl (fun () -> 7) in
  Pool.shutdown pl;
  Pool.shutdown pl (* idempotent *);
  check_int "queued task still ran" 7 (Pool.await_exn f);
  (match Pool.async pl (fun () -> 0) with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "async after shutdown must raise");
  match Pool.create ~jobs:0 () with
  | exception Invalid_argument _ -> ()
  | pl ->
    Pool.shutdown pl;
    Alcotest.fail "jobs=0 must be rejected"

let test_token () =
  let t = Pool.Token.create () in
  check_bool "fresh token not cancelled" false (Pool.Token.cancelled t);
  Pool.Token.cancel t;
  check_bool "cancelled after cancel" true (Pool.Token.cancelled t)

(* ------------------------------------------------------------------ *)
(* Worker-death supervision                                            *)
(* ------------------------------------------------------------------ *)

(* A task whose exception escapes the funnel (Poison) kills its worker
   domain. Await must surface Worker_crashed — never hang — and the
   supervisor must respawn the domain so capacity is preserved. *)
let test_pool_worker_death_no_hang () =
  Pool.with_pool ~jobs:1 (fun pl ->
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
      check_int "respawned worker serves new tasks" 42 (Pool.await_exn after))

let test_pool_retry_on_crash () =
  Pool.with_pool ~jobs:1 (fun pl ->
      (* poison exactly once: the re-enqueued run must succeed *)
      let armed = Atomic.make true in
      let f =
        Pool.async ~retry_on_crash:1 pl (fun () ->
            if Atomic.exchange armed false then raise (Pool.Poison "once");
            7)
      in
      check_int "task survived one worker death" 7 (Pool.await_exn f);
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
(* Foreign-incumbent pruning through the hooks, deterministically      *)
(* ------------------------------------------------------------------ *)

(* minimize x, x integer in [0, 10], x >= 2.5. The LP relaxation is
   2.5; a foreign incumbent of 3.0 delivered through get_incumbent
   makes the x>=3 branch (bound exactly 3.0) prunable only thanks to
   that import — which must be counted in foreign_prunes. *)
let foreign_prune_problem () =
  let p = P.create () in
  let x = P.integer ~name:"x" ~lo:0.0 ~hi:10.0 p in
  ignore (P.add_constr p (L.of_list [ (1.0, x) ]) P.Ge 2.5);
  P.set_objective p P.Minimize (L.of_list [ (1.0, x) ]);
  p

let foreign_hooks () =
  let delivered = ref false in
  {
    B.no_hooks with
    B.get_incumbent =
      (fun () ->
        if !delivered then None
        else begin
          delivered := true;
          Some (3.0, [| 3.0 |])
        end);
  }

let check_foreign_prune name (s : B.solution) =
  check_bool (name ^ ": optimal") true (s.B.status = B.Optimal);
  (match s.B.obj with
   | Some o -> Alcotest.(check (float 1e-9)) (name ^ ": obj") 3.0 o
   | None -> Alcotest.fail (name ^ ": no objective"));
  check_bool
    (name ^ ": pruned on the foreign incumbent")
    true
    (s.B.stats.B.foreign_prunes >= 1)

let test_foreign_prune_best_first () =
  let s = B.solve ~hooks:(foreign_hooks ()) (foreign_prune_problem ()) in
  check_foreign_prune "best-first" s

(* ------------------------------------------------------------------ *)
(* Portfolio                                                           *)
(* ------------------------------------------------------------------ *)

(* A deterministic knapsack family with fractional LP roots, so every
   worker has to branch. *)
let knapsack seed =
  let n = 8 in
  let rand =
    let state = ref (seed * 2654435761 land 0x3FFFFFFF) in
    fun bound ->
      state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
      1 + (!state mod bound)
  in
  let weights = Array.init n (fun _ -> rand 20) in
  let values = Array.init n (fun _ -> rand 20) in
  let cap = float_of_int (3 + rand 40) +. 0.5 in
  let p = P.create () in
  let xs = Array.init n (fun i -> P.binary ~name:(Printf.sprintf "k%d" i) p) in
  ignore
    (P.add_constr p
       (L.of_list
          (Array.to_list
             (Array.mapi (fun i x -> (float_of_int weights.(i), x)) xs)))
       P.Le cap);
  P.set_objective p P.Maximize
    (L.of_list
       (Array.to_list (Array.mapi (fun i x -> (float_of_int values.(i), x)) xs)));
  p

let test_portfolio_deterministic_bit_identical () =
  for seed = 1 to 8 do
    let r1 =
      Portfolio.solve ~jobs:1 ~deterministic:true ~time_limit_s:30.0
        (knapsack seed)
    in
    let r4 =
      Portfolio.solve ~jobs:4 ~deterministic:true ~time_limit_s:30.0
        (knapsack seed)
    in
    let name what = Printf.sprintf "seed %d: %s" seed what in
    check_bool (name "jobs=1 optimal") true
      (r1.Portfolio.solution.B.status = B.Optimal);
    check_bool (name "jobs=4 optimal") true
      (r4.Portfolio.solution.B.status = B.Optimal);
    check_bool (name "same winner") true
      (r1.Portfolio.stats.Portfolio.winner = r4.Portfolio.stats.Portfolio.winner);
    (* bit-identical, not approximately equal *)
    check_bool (name "identical objective") true
      (r1.Portfolio.solution.B.obj = r4.Portfolio.solution.B.obj);
    check_bool (name "identical assignment") true
      (r1.Portfolio.solution.B.x = r4.Portfolio.solution.B.x)
  done

let test_portfolio_incumbent_exchange () =
  (* the all-zero vector is feasible for any knapsack: pre-seeding it
     into the shared cell guarantees at least one publish, and every
     worker that reaches its first poll imports it *)
  let p = knapsack 3 in
  let r =
    Portfolio.solve ~jobs:4 ~time_limit_s:30.0
      ~incumbent:(Array.make (P.num_vars p) 0.0)
      p
  in
  let st = r.Portfolio.stats in
  check_bool "solved" true (r.Portfolio.solution.B.status = B.Optimal);
  check_int "raced with 4 workers" 4 (List.length st.Portfolio.reports);
  check_bool "incumbents were published" true
    (st.Portfolio.incumbents_published >= 1);
  check_bool "incumbents were imported" true
    (st.Portfolio.incumbents_imported >= 1)

(* Chaos injection: kill one worker's domain at task start. The pool
   respawns it and the one crash retry re-runs the config, so the race
   still completes with a solution. *)
let test_portfolio_chaos_crash_recovery () =
  let armed = Atomic.make true in
  let chaos idx =
    if idx = 0 && Atomic.exchange armed false then
      raise (Pool.Poison "injected worker death")
  in
  let r = Portfolio.solve ~jobs:2 ~chaos ~time_limit_s:30.0 (knapsack 3) in
  check_bool "race completed despite the crash" true
    (r.Portfolio.solution.B.status = B.Optimal);
  check_bool "supervisor handled at least one death" true
    (r.Portfolio.stats.Portfolio.worker_crashes >= 1);
  (* the retried config recovered, so no report is marked crashed *)
  check_bool "no config ended crashed" true
    (List.for_all
       (fun (rep : Portfolio.report) -> not rep.Portfolio.crashed)
       r.Portfolio.stats.Portfolio.reports)

(* Out-of-retries crash: the config is reported crashed, the race still
   returns the surviving workers' solution instead of hanging. *)
let test_portfolio_crashed_config_reported () =
  let chaos idx =
    if idx = 1 then raise (Pool.Poison "persistent death")
  in
  let r = Portfolio.solve ~jobs:2 ~chaos ~time_limit_s:30.0 (knapsack 5) in
  check_bool "survivors completed the race" true
    (r.Portfolio.solution.B.status = B.Optimal);
  let reps = Array.of_list r.Portfolio.stats.Portfolio.reports in
  check_bool "the poisoned config is marked crashed" true
    reps.(1).Portfolio.crashed;
  check_bool "crashed config has no status" true
    (reps.(1).Portfolio.status = B.Unknown);
  check_bool "the winner is a survivor" true
    (match r.Portfolio.stats.Portfolio.winner with
     | Some w -> w <> 1
     | None -> false)

(* ------------------------------------------------------------------ *)
(* Sweep                                                               *)
(* ------------------------------------------------------------------ *)

let test_sweep_map_and_funnel () =
  let outs =
    Sweep.map ~jobs:3
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
  let global = Milp.Clock.deadline_of ~limit_s:60.0 in
  let outs =
    Sweep.map ~jobs:2 ~deadline:global
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
  let outs = Sweep.map ~jobs:2 (fun ~deadline x -> (deadline, x)) [ 1; 2 ] in
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
  let armed = Atomic.make true in
  let outs =
    Sweep.map ~jobs:2
      (fun ~deadline:_ x ->
        if x = 2 && Atomic.exchange armed false then
          raise (Pool.Poison "sweep chaos");
        x * 10)
      [ 1; 2; 3 ]
  in
  List.iter
    (fun (o : _ Sweep.outcome) ->
      check_bool "retried item recovered" false (Sweep.crashed o);
      match o.Sweep.result with
      | Ok v -> check_int "result intact" (10 * o.Sweep.item) v
      | Error e -> raise e)
    outs;
  (* with the retry budget at 0, the crash surfaces as an outcome *)
  let outs =
    Sweep.map ~jobs:2 ~retry_on_crash:0
      (fun ~deadline:_ x ->
        if x = 2 then raise (Pool.Poison "sweep chaos");
        x * 10)
      [ 1; 2; 3 ]
  in
  check_int "every item has an outcome" 3 (List.length outs);
  List.iter
    (fun (o : _ Sweep.outcome) ->
      if o.Sweep.item = 2 then
        check_bool "poisoned item marked crashed" true (Sweep.crashed o)
      else begin
        check_bool "other items unaffected" false (Sweep.crashed o);
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
  let global = Milp.Clock.deadline_of ~limit_s:60.0 in
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

(* ------------------------------------------------------------------ *)
(* End to end: Solve.solve ?jobs on WATERS, certified both ways        *)
(* ------------------------------------------------------------------ *)

let test_solve_jobs_certified () =
  let app = Workload.Waters2019.make () in
  let groups = Groups.compute app in
  match Rt_analysis.Sensitivity.gammas app ~alpha:0.2 with
  | None -> Alcotest.fail "WATERS unschedulable"
  | Some s ->
    let gamma = s.Rt_analysis.Sensitivity.gamma in
    let warm = Letdma.Heuristic.solve_unchecked app groups ~gamma in
    let solve jobs =
      Letdma.Solve.solve ~jobs ~time_limit_s:30.0 ?warm
        Letdma.Formulation.No_obj app groups ~gamma
    in
    let r1 = solve 1 and r4 = solve 4 in
    let certified name (r : Letdma.Solve.result) =
      check_bool (name ^ ": has a solution") true
        (Option.is_some r.Letdma.Solve.solution);
      match r.Letdma.Solve.certificate with
      | Some (Ok _) -> ()
      | Some (Error _) -> Alcotest.fail (name ^ ": certification rejected")
      | None -> Alcotest.fail (name ^ ": no certificate")
    in
    certified "sequential" r1;
    certified "portfolio jobs=4" r4

(* ------------------------------------------------------------------ *)
(* Property: sequential B&B and portfolio agree on generator MILPs     *)
(* ------------------------------------------------------------------ *)

let small_config =
  {
    Workload.Generator.default_config with
    Workload.Generator.n_tasks = 3;
    n_edges = 1;
    max_labels_per_edge = 1;
  }

let prop_engines_agree =
  QCheck.Test.make ~name:"engines and portfolio agree on random instances"
    ~count:50
    QCheck.(int_range 1 5_000)
    (fun seed ->
      let app = Workload.Generator.random ~seed ~config:small_config () in
      let groups = Groups.compute app in
      QCheck.assume (not (Comm.Set.is_empty (Groups.s0 groups)));
      match Rt_analysis.Sensitivity.gammas app ~alpha:0.3 with
      | None -> QCheck.assume_fail ()
      | Some s when not s.Rt_analysis.Sensitivity.schedulable ->
        QCheck.assume_fail ()
      | Some s ->
        let gamma = s.Rt_analysis.Sensitivity.gamma in
        let inst =
          Letdma.Formulation.make Letdma.Formulation.No_obj app groups ~gamma
        in
        let p = inst.Letdma.Formulation.problem in
        let budget = 5.0 and nodes = 50_000 in
        let bb = B.solve ~time_limit_s:budget ~node_limit:nodes p in
        (* instances the sequential engine cannot close quickly are
           outside this property's scope *)
        QCheck.assume (bb.B.status = B.Optimal);
        (* so are tolerance-edge instances whose optimum only satisfies
           the constraints to worse than 1e-6: differently seeded searches
           legitimately disagree on whether such a vertex is acceptable *)
        QCheck.assume
          (match bb.B.x with
          | Some x -> P.check_solution ~eps:1.0e-6 p x = []
          | None -> false);
        let pf jobs =
          Portfolio.solve ~jobs ~deterministic:true ~time_limit_s:budget
            ~node_limit:nodes p
        in
        let p1 = pf 1 and p4 = pf 4 in
        let obj_of name (s : B.solution) =
          if s.B.status <> B.Optimal then
            QCheck.Test.fail_reportf "seed %d: %s not optimal" seed name;
          match s.B.obj with
          | Some o -> o
          | None -> QCheck.Test.fail_reportf "seed %d: %s no obj" seed name
        in
        let reference = obj_of "best-first" bb in
        List.for_all
          (fun (name, s) -> Float.abs (obj_of name s -. reference) < 1e-6)
          [
            ("portfolio jobs=1", p1.Portfolio.solution);
            ("portfolio jobs=4", p4.Portfolio.solution);
          ]
        && p1.Portfolio.solution.B.obj = p4.Portfolio.solution.B.obj)

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map preserves order" `Quick test_pool_map_order;
          Alcotest.test_case "exception funneling" `Quick
            test_pool_exception_funnel;
          Alcotest.test_case "shutdown" `Quick test_pool_shutdown;
          Alcotest.test_case "token" `Quick test_token;
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
      ( "hooks",
        [
          Alcotest.test_case "foreign prune (best-first)" `Quick
            test_foreign_prune_best_first;
        ] );
      ( "portfolio",
        [
          Alcotest.test_case "deterministic mode is bit-identical" `Quick
            test_portfolio_deterministic_bit_identical;
          Alcotest.test_case "incumbent exchange counters" `Quick
            test_portfolio_incumbent_exchange;
          Alcotest.test_case "chaos crash recovery" `Quick
            test_portfolio_chaos_crash_recovery;
          Alcotest.test_case "crashed config reported" `Quick
            test_portfolio_crashed_config_reported;
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
      ( "end-to-end",
        [
          Alcotest.test_case "Solve ?jobs certified on WATERS" `Slow
            test_solve_jobs_certified;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest ~long:true prop_engines_agree ] );
    ]
