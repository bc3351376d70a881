(* Tests for the core contribution: the MILP formulation (Constraints
   1-10), the lazy solver, solution decoding/encoding, the greedy
   heuristic, the baselines and the experiment pipeline. *)

open Rt_model
open Let_sem
open Letdma

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let ms = Time.of_ms

(* 2 cores: t0 -> t1 (two labels), t1 -> t2 (one label), t2 on core 0.
   Mixed periods exercise the skip machinery. *)
let fixture () =
  let platform = Platform.make ~n_cores:2 () in
  let tasks =
    [
      Task.make ~id:0 ~name:"t0" ~period:(ms 10) ~wcet:(ms 1) ~core:0;
      Task.make ~id:1 ~name:"t1" ~period:(ms 20) ~wcet:(ms 2) ~core:1;
      Task.make ~id:2 ~name:"t2" ~period:(ms 20) ~wcet:(ms 2) ~core:0;
    ]
  in
  let labels =
    [
      Label.make ~id:0 ~name:"a" ~size:256 ~writer:0 ~readers:[ 1 ];
      Label.make ~id:1 ~name:"b" ~size:128 ~writer:0 ~readers:[ 1 ];
      Label.make ~id:2 ~name:"c" ~size:512 ~writer:1 ~readers:[ 2 ];
    ]
  in
  App.make ~platform ~tasks ~labels

let gamma_for app alpha =
  match Rt_analysis.Sensitivity.gammas app ~alpha with
  | Some s -> s.Rt_analysis.Sensitivity.gamma
  | None -> Alcotest.fail "fixture unschedulable"

let solve_fixture ?options ?warm objective =
  let app = fixture () in
  let groups = Groups.compute app in
  let gamma = gamma_for app 0.3 in
  let warm =
    match warm with
    | Some true | None -> Heuristic.solve_unchecked app groups ~gamma
    | Some false -> None
  in
  (app, groups, gamma, Solve.solve ?options ~time_limit_s:20.0 ?warm objective app groups ~gamma)

(* ------------------------------------------------------------------ *)
(* Formulation                                                         *)
(* ------------------------------------------------------------------ *)

let test_formulation_build () =
  let app = fixture () in
  let groups = Groups.compute app in
  let gamma = gamma_for app 0.3 in
  let inst = Formulation.make Formulation.No_obj app groups ~gamma in
  check_bool "has variables" true
    (Milp.Problem.num_vars inst.Formulation.problem > 0);
  check_bool "has constraints" true
    (Milp.Problem.num_constrs inst.Formulation.problem > 0);
  (* C(s0) = 3 writes + 3 reads *)
  check_int "comms" 6 (Array.length inst.Formulation.comms);
  (* classes: W core0, W core1, R core0, R core1 *)
  check_int "classes" 4 (Array.length inst.Formulation.classes);
  check_int "slots default to |C|" 6 inst.Formulation.g_max;
  (* the model passes its own validation *)
  Alcotest.(check (list string)) "no model issues" []
    (List.map
       (Fmt.str "%a" Milp.Problem.pp_issue)
       (Milp.Problem.validate inst.Formulation.problem))

(* Regression (PR 4): the MTZ position-linking rows (C5a/C5b) were
   emitted in [Hashtbl.iter] order, so the constraint sequence — and with
   it the simplex pivot trajectory and branch-and-bound node count — was
   hash-layout-dependent. The formulation now iterates sorted bindings:
   within each memory the C5a rows must appear in ascending
   (mem, pred, succ) key order, two builds of the same instance must
   produce identical constraint-name sequences, and two cold solves must
   explore identical node counts. *)
let test_formulation_deterministic_order () =
  let app = fixture () in
  let groups = Groups.compute app in
  let gamma = gamma_for app 0.3 in
  let build () = Formulation.make Formulation.No_obj app groups ~gamma in
  let inst = build () in
  (* recover each C5a row's (mem, pred, succ) key from its variable id *)
  let rev = Hashtbl.create 64 in
  Hashtbl.iter
    (fun k v -> Hashtbl.replace rev v k)
    inst.Formulation.next_var;
  let prefix = "C5a_" in
  let plen = String.length prefix in
  let keys = ref [] in
  Milp.Problem.iter_constrs
    (fun c ->
      let n = c.Milp.Problem.c_name in
      if String.length n > plen && String.sub n 0 plen = prefix then
        match int_of_string_opt (String.sub n plen (String.length n - plen)) with
        | Some v -> (
          match Hashtbl.find_opt rev v with
          | Some k -> keys := k :: !keys
          | None -> ())
        | None -> ())
    inst.Formulation.problem;
  let keys = List.rev !keys in
  check_bool "fixture has MTZ rows" true (keys <> []);
  let by_mem = Hashtbl.create 4 in
  List.iter
    (fun ((mi, _, _) as k) ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt by_mem mi) in
      Hashtbl.replace by_mem mi (k :: prev))
    keys;
  Hashtbl.iter
    (fun _ ks ->
      let ks = List.rev ks in
      check_bool "C5a keys ascending per memory" true
        (ks = List.sort compare ks))
    by_mem;
  let names inst =
    let acc = ref [] in
    Milp.Problem.iter_constrs
      (fun c -> acc := c.Milp.Problem.c_name :: !acc)
      inst.Formulation.problem;
    List.rev !acc
  in
  Alcotest.(check (list string))
    "same constraint sequence across builds" (names inst) (names (build ()));
  (* cold solves: a warm incumbent would shortcut NO-OBJ with 0 nodes *)
  let solve () =
    (Solve.solve ~time_limit_s:20.0 Formulation.No_obj app groups ~gamma)
      .Solve.stats
      .Solve.nodes
  in
  check_int "same node count across solves" (solve ()) (solve ())

let test_formulation_gmax_too_small () =
  let app = fixture () in
  let groups = Groups.compute app in
  let gamma = gamma_for app 0.3 in
  check_bool "g_max below class count rejected" true
    (try
       ignore
         (Formulation.make
            ~options:{ Formulation.default_options with Formulation.g_max = Some 2 }
            Formulation.No_obj app groups ~gamma);
       false
     with Invalid_argument _ -> true)

let test_formulation_rejects_same_core_readers () =
  let platform = Platform.make ~n_cores:2 () in
  let tasks =
    [
      Task.make ~id:0 ~name:"w" ~period:(ms 10) ~wcet:(ms 1) ~core:0;
      Task.make ~id:1 ~name:"r1" ~period:(ms 10) ~wcet:(ms 1) ~core:1;
      Task.make ~id:2 ~name:"r2" ~period:(ms 10) ~wcet:(ms 1) ~core:1;
    ]
  in
  let labels =
    [ Label.make ~id:0 ~name:"l" ~size:8 ~writer:0 ~readers:[ 1; 2 ] ]
  in
  let app = App.make ~platform ~tasks ~labels in
  let groups = Groups.compute app in
  let gamma = Array.make 3 (ms 1) in
  check_bool "two same-core readers rejected" true
    (try
       ignore (Formulation.make Formulation.No_obj app groups ~gamma);
       false
     with Invalid_argument _ -> true)

let test_encode_heuristic_feasible () =
  let app = fixture () in
  let groups = Groups.compute app in
  let gamma = gamma_for app 0.3 in
  let inst = Formulation.make Formulation.No_obj app groups ~gamma in
  match Heuristic.solve_unchecked app groups ~gamma with
  | None -> Alcotest.fail "no heuristic plan"
  | Some sol ->
    (match Formulation.encode inst sol with
     | None -> Alcotest.fail "encode failed"
     | Some x ->
       Alcotest.(check (list string)) "heuristic point feasible" []
         (Milp.Problem.check_solution inst.Formulation.problem x))

let test_encode_feasible_with_full_c6 () =
  let app = fixture () in
  let groups = Groups.compute app in
  let gamma = gamma_for app 0.3 in
  let inst =
    Formulation.make
      ~options:{ Formulation.default_options with Formulation.full_c6 = true }
      Formulation.No_obj app groups ~gamma
  in
  match Heuristic.solve_unchecked app groups ~gamma with
  | None -> Alcotest.fail "no heuristic plan"
  | Some sol ->
    (match Formulation.encode inst sol with
     | None -> Alcotest.fail "encode failed"
     | Some x ->
       Alcotest.(check (list string)) "feasible under full Constraint 6" []
         (Milp.Problem.check_solution inst.Formulation.problem x))

(* corrupting the heuristic plan must be caught by the model: swapping the
   last read before the writes violates Constraints 7/8 *)
let test_model_rejects_bad_order () =
  let app = fixture () in
  let groups = Groups.compute app in
  let gamma = gamma_for app 0.3 in
  let inst = Formulation.make Formulation.No_obj app groups ~gamma in
  match Heuristic.solve_unchecked app groups ~gamma with
  | None -> Alcotest.fail "no heuristic plan"
  | Some sol ->
    let plan = Solution.s0_plan app sol in
    let reversed = List.rev plan in
    let slots = Array.of_list reversed in
    let bad = Solution.make ~allocation:(Solution.allocation sol) ~slots in
    (match Formulation.encode inst bad with
     | None -> () (* also acceptable: encode refuses *)
     | Some x ->
       check_bool "violations found" true
         (Milp.Problem.check_solution inst.Formulation.problem x <> []))

(* ------------------------------------------------------------------ *)
(* Solve                                                               *)
(* ------------------------------------------------------------------ *)

let test_solve_no_obj () =
  let app, groups, _gamma, r = solve_fixture Formulation.No_obj in
  (match r.Solve.solution with
   | Some sol ->
     Alcotest.(check (result unit string)) "validates" (Ok ())
       (Solution.validate app groups sol)
   | None -> Alcotest.fail "expected a solution");
  check_bool "status optimal" true (r.Solve.stats.Solve.status = Milp.Branch_bound.Optimal)

let test_solve_min_delay () =
  let app, groups, gamma, r = solve_fixture Formulation.Min_delay_ratio in
  match r.Solve.solution with
  | None -> Alcotest.fail "expected a solution"
  | Some sol ->
    Alcotest.(check (result unit string)) "validates" (Ok ())
      (Solution.validate app groups sol);
    (* the optimized max lambda/T never exceeds the heuristic's *)
    let ratio s =
      let lam = Solution.lambda_s0 app s in
      let worst = ref 0.0 in
      Array.iteri
        (fun i l ->
          let t = (App.task app i).Task.period in
          worst := Float.max !worst (float_of_int l /. float_of_int t))
        lam;
      !worst
    in
    (match Heuristic.solve_unchecked app groups ~gamma with
     | Some h -> check_bool "no worse than heuristic" true (ratio sol <= ratio h +. 1e-9)
     | None -> ())

let test_solve_min_transfers () =
  let app, groups, gamma, r = solve_fixture Formulation.Min_transfers in
  match r.Solve.solution with
  | None -> Alcotest.fail "expected a solution"
  | Some sol ->
    Alcotest.(check (result unit string)) "validates" (Ok ())
      (Solution.validate app groups sol);
    (match Heuristic.solve_unchecked ~granularity:Heuristic.Grouped app groups ~gamma with
     | Some h ->
       check_bool "at most the grouped heuristic's transfers" true
         (Solution.num_transfers sol <= Solution.num_transfers h)
     | None -> ())

let test_solve_without_warm () =
  let app, groups, _gamma, r = solve_fixture ~warm:false Formulation.No_obj in
  match r.Solve.solution with
  | None -> Alcotest.fail "expected a solution even without warm start"
  | Some sol ->
    Alcotest.(check (result unit string)) "validates" (Ok ())
      (Solution.validate app groups sol)

(* presolve is on by default; the reduction must not change what the
   solver returns on the seed example — the perturbation is keyed on
   stable row ids precisely so reduced and original models solve along
   identical trajectories (same node count, same assignment) *)
let test_solve_presolve_default_unchanged () =
  let app = fixture () in
  let groups = Groups.compute app in
  let gamma = gamma_for app 0.3 in
  (* no warm start: a warm incumbent triggers the feasibility shortcut on
     NO-OBJ and no search (hence no presolve) would run at all.
     [basis_pool:0] keeps both solves on the cold per-node path: a warm
     restore may land on a different (equally optimal) degenerate vertex
     of the reduced model, which legitimately changes the branching
     trajectory — warm-vs-cold agreement has its own tests. *)
  let solve presolve =
    Solve.solve ~presolve ~basis_pool:0 ~time_limit_s:20.0 Formulation.No_obj
      app groups ~gamma
  in
  let on = solve true and off = solve false in
  check_bool "both solved" true
    (on.Solve.solution <> None && off.Solve.solution <> None);
  check_bool "same status" true
    (on.Solve.stats.Solve.status = off.Solve.stats.Solve.status);
  check_int "same node count" off.Solve.stats.Solve.nodes
    on.Solve.stats.Solve.nodes;
  (match (on.Solve.x, off.Solve.x) with
   | Some a, Some b ->
     check_bool "same assignment" true
       (Array.length a = Array.length b
        && Array.for_all2 (fun u v -> Float.abs (u -. v) < 1e-9) a b)
   | _ -> Alcotest.fail "expected raw assignments");
  check_bool "presolve reduced something" true
    (on.Solve.stats.Solve.lp.Milp.Branch_bound.presolve_rounds > 0)

let test_pipeline_presolve_default_unchanged () =
  let app = fixture () in
  let run presolve =
    match Pipeline.run ~presolve ~budget_s:30.0 ~alpha:0.3 app with
    | Ok o -> o
    | Error f -> Alcotest.fail (Pipeline.failure_to_string f)
  in
  let on = run true and off = run false in
  check_bool "same rung" true (on.Pipeline.rung = off.Pipeline.rung);
  check_bool "same solution" true
    (Solution.allocation on.Pipeline.solution
     = Solution.allocation off.Pipeline.solution)

let test_solve_infeasible_gamma () =
  let app = fixture () in
  let groups = Groups.compute app in
  (* gamma far below one transfer's overhead: infeasible *)
  let gamma = Array.make (App.num_tasks app) (Time.of_us 1) in
  let r = Solve.solve ~time_limit_s:10.0 Formulation.No_obj app groups ~gamma in
  check_bool "no solution" true (r.Solve.solution = None);
  check_bool "infeasible status" true
    (r.Solve.stats.Solve.status = Milp.Branch_bound.Infeasible)

(* ------------------------------------------------------------------ *)
(* Solution                                                            *)
(* ------------------------------------------------------------------ *)

let test_solution_projection () =
  let app = fixture () in
  let groups = Groups.compute app in
  let gamma = gamma_for app 0.3 in
  match Heuristic.solve_unchecked app groups ~gamma with
  | None -> Alcotest.fail "no plan"
  | Some sol ->
    let c0 = Groups.s0 groups in
    List.iter
      (fun (p : Groups.pattern) ->
        let time = List.hd p.Groups.occurrences in
        let plan = Solution.plan_at app groups sol time in
        let comms = Comm.Set.of_list (List.concat plan) in
        check_bool "projection equals C(t)" true (Comm.Set.equal comms p.Groups.comms);
        check_bool "subset of s0" true (Comm.Set.subset comms c0))
      (Groups.patterns groups)

(* Theorem 1: under the protocol, the latency measured over the whole
   hyperperiod equals the latency at the synchronous instant s0. *)
let test_theorem1_lambda_peaks_at_s0 () =
  let app = fixture () in
  let groups = Groups.compute app in
  let gamma = gamma_for app 0.3 in
  match Heuristic.solve_unchecked app groups ~gamma with
  | None -> Alcotest.fail "no plan"
  | Some sol ->
    let analytic = Solution.lambda_s0 app sol in
    let m =
      Baselines.run app groups Baselines.Proposed ~solution:(Some sol)
    in
    Array.iteri
      (fun i l ->
        check_int
          (Printf.sprintf "lambda(%s)" (App.task app i).Task.name)
          l
          m.Dma_sim.Sim.lambda.(i))
      analytic

(* ------------------------------------------------------------------ *)
(* Heuristic                                                           *)
(* ------------------------------------------------------------------ *)

let test_heuristic_validates () =
  let app = fixture () in
  let groups = Groups.compute app in
  let gamma = gamma_for app 0.3 in
  match Heuristic.solve app groups ~gamma with
  | Ok sol ->
    Alcotest.(check (result unit string)) "validates" (Ok ())
      (Solution.validate app groups sol)
  | Error e -> Alcotest.fail e

let test_heuristic_grouped_fewer_transfers () =
  let app = Workload.Waters2019.make () in
  let groups = Groups.compute app in
  let gamma = gamma_for app 0.2 in
  let per_task = Option.get (Heuristic.solve_unchecked app groups ~gamma) in
  let grouped =
    Option.get
      (Heuristic.solve_unchecked ~granularity:Heuristic.Grouped app groups ~gamma)
  in
  check_bool "grouped not worse" true
    (Solution.num_transfers grouped <= Solution.num_transfers per_task);
  Alcotest.(check (result unit string)) "grouped still validates" (Ok ())
    (Solution.validate app groups grouped)

let test_heuristic_no_comms () =
  let platform = Platform.make ~n_cores:2 () in
  let tasks =
    [ Task.make ~id:0 ~name:"t" ~period:(ms 10) ~wcet:(ms 1) ~core:0 ]
  in
  let app = App.make ~platform ~tasks ~labels:[] in
  let groups = Groups.compute app in
  check_bool "error on empty comms" true
    (Result.is_error (Heuristic.solve app groups ~gamma:[| ms 1 |]));
  check_bool "none on empty comms" true
    (Heuristic.solve_unchecked app groups ~gamma:[| ms 1 |] = None)

(* ------------------------------------------------------------------ *)
(* LET task analysis (Section V.C)                                     *)
(* ------------------------------------------------------------------ *)

let test_let_task_segments () =
  let app = fixture () in
  let groups = Groups.compute app in
  let gamma = gamma_for app 0.3 in
  let sol = Option.get (Heuristic.solve_unchecked app groups ~gamma) in
  let p = App.platform app in
  List.iter
    (fun core ->
      let segs = Let_task.segments app groups sol ~core in
      (* every segment costs lambda_O of CPU time and recurs no faster
         than the fastest communicating period *)
      List.iter
        (fun s ->
          check_int "segment wcet = lambda_O" (Platform.lambda_o p)
            s.Let_task.wcet;
          check_bool "positive inter-arrival" true
            (s.Let_task.min_interarrival > 0))
        segs)
    [ 0; 1 ];
  (* all slots are accounted for across the cores *)
  let total =
    List.length (Let_task.segments app groups sol ~core:0)
    + List.length (Let_task.segments app groups sol ~core:1)
  in
  check_int "segments cover all transfers" (Solution.num_transfers sol) total

let test_let_task_interference_monotone () =
  let app = fixture () in
  let groups = Groups.compute app in
  let gamma = gamma_for app 0.3 in
  let sol = Option.get (Heuristic.solve_unchecked app groups ~gamma) in
  let jitter = Rt_analysis.Rta.no_jitter app in
  List.iter
    (fun (t : Task.t) ->
      match
        ( Rt_analysis.Rta.response_time app ~jitter t.Task.id,
          Let_task.response_time_with_let app groups sol ~jitter t.Task.id )
      with
      | Some base, Some full ->
        check_bool "LET overhead non-negative" true (Time.compare full base >= 0)
      | _ -> Alcotest.fail "analysis diverged")
    (App.tasks app)

let test_let_task_schedulable () =
  let app = fixture () in
  let groups = Groups.compute app in
  let gamma = gamma_for app 0.3 in
  let sol = Option.get (Heuristic.solve_unchecked app groups ~gamma) in
  check_bool "schedulable with gamma jitter" true
    (Let_task.schedulable_with_let app groups sol ~jitter:gamma)

let test_let_task_overhead_waters () =
  let app = Workload.Waters2019.make () in
  let groups = Groups.compute app in
  let gamma = gamma_for app 0.2 in
  let sol = Option.get (Heuristic.solve_unchecked app groups ~gamma) in
  let jitter = Rt_analysis.Rta.no_jitter app in
  (* on WATERS the LET machinery must not break schedulability *)
  check_bool "waters schedulable with LET overhead" true
    (Let_task.schedulable_with_let app groups sol ~jitter:gamma);
  (* and the per-task overhead is bounded by the worst burst *)
  List.iter
    (fun (t : Task.t) ->
      match Let_task.let_overhead app groups sol ~jitter t.Task.id with
      | Some d -> check_bool "overhead bounded by 2ms" true (d <= Time.of_ms 2)
      | None -> Alcotest.fail "diverged")
    (App.tasks app)

(* ------------------------------------------------------------------ *)
(* Baselines                                                           *)
(* ------------------------------------------------------------------ *)

let test_baseline_names () =
  Alcotest.(check (list string)) "names"
    [ "Proposed"; "Giotto-CPU"; "Giotto-DMA-A"; "Giotto-DMA-B" ]
    (List.map Baselines.approach_name Baselines.all_approaches)

let test_giotto_dma_b_grouping () =
  let app = fixture () in
  let groups = Groups.compute app in
  let gamma = gamma_for app 0.3 in
  let sol = Option.get (Heuristic.solve_unchecked app groups ~gamma) in
  let alloc = Solution.allocation sol in
  let c0 = Groups.s0 groups in
  let plan_b = Baselines.giotto_dma_b_plan app alloc c0 in
  (* covers everything, keeps single classes, feasible under allocation *)
  check_bool "well formed" true
    (Result.is_ok (Properties.well_formed ~expected:c0 plan_b));
  check_bool "single class" true
    (Result.is_ok (Properties.single_class app plan_b));
  check_bool "feasible" true
    (Result.is_ok (Mem_layout.Allocation.plan_feasible app alloc plan_b));
  (* grouping means no more transfers than singletons *)
  check_bool "at most one transfer per comm" true
    (List.length plan_b <= Comm.Set.cardinal c0)

let test_proposed_beats_barrier_per_task () =
  let app = fixture () in
  let groups = Groups.compute app in
  let gamma = gamma_for app 0.3 in
  let sol = Option.get (Heuristic.solve_unchecked app groups ~gamma) in
  let mp = Baselines.run app groups Baselines.Proposed ~solution:(Some sol) in
  let mb = Baselines.run app groups Baselines.Giotto_dma_b ~solution:(Some sol) in
  ignore mb;
  (* at minimum, no task does worse than the singleton barrier baseline *)
  let ma = Baselines.run app groups Baselines.Giotto_dma_a ~solution:None in
  List.iter
    (fun (t : Task.t) ->
      check_bool "protocol <= Giotto-DMA-A" true
        (Time.compare
           mp.Dma_sim.Sim.lambda.(t.Task.id)
           ma.Dma_sim.Sim.lambda.(t.Task.id)
        <= 0))
    (App.tasks app)

let test_baseline_requires_solution () =
  let app = fixture () in
  let groups = Groups.compute app in
  check_bool "proposed without solution raises" true
    (try
       ignore (Baselines.run app groups Baselines.Proposed ~solution:None);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Experiment                                                          *)
(* ------------------------------------------------------------------ *)

let test_experiment_heuristic_config () =
  let app = fixture () in
  match Experiment.run_config ~solver:Experiment.Heuristic app ~alpha:0.3 with
  | Error e -> Alcotest.fail (Experiment.error_to_string e)
  | Ok r ->
    check_int "four approaches" 4 (List.length r.Experiment.metrics);
    check_bool "ratio vs self is 1" true
      (List.for_all
         (fun (t : Task.t) ->
           let rho = Experiment.ratio r Baselines.Proposed t.Task.id in
           rho = 1.0 || Float.is_nan rho = false)
         (App.tasks app));
    check_bool "transfers positive" true (r.Experiment.num_transfers > 0)

let test_experiment_unschedulable () =
  let platform = Platform.make ~n_cores:2 () in
  let tasks =
    [
      Task.make ~id:0 ~name:"hog" ~period:(ms 10) ~wcet:(ms 6) ~core:0;
      Task.make ~id:1 ~name:"hog2" ~period:(ms 10) ~wcet:(ms 6) ~core:0;
      Task.make ~id:2 ~name:"r" ~period:(ms 10) ~wcet:(ms 1) ~core:1;
    ]
  in
  let labels = [ Label.make ~id:0 ~name:"l" ~size:8 ~writer:0 ~readers:[ 2 ] ] in
  let app = App.make ~platform ~tasks ~labels in
  check_bool "unschedulable reported" true
    (Result.is_error (Experiment.run_config ~solver:Experiment.Heuristic app ~alpha:0.2))

let test_experiment_no_comms () =
  let platform = Platform.make ~n_cores:2 () in
  let tasks =
    [ Task.make ~id:0 ~name:"t" ~period:(ms 10) ~wcet:(ms 1) ~core:0 ]
  in
  let app = App.make ~platform ~tasks ~labels:[] in
  check_bool "no-comms reported" true
    (Result.is_error (Experiment.run_config ~solver:Experiment.Heuristic app ~alpha:0.2))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_report_rendering () =
  let app = fixture () in
  match Experiment.run_config ~solver:Experiment.Heuristic app ~alpha:0.3 with
  | Error e -> Alcotest.fail (Experiment.error_to_string e)
  | Ok r ->
    let subplot = Fmt.str "%a" (fun ppf -> Report.fig2_subplot ppf app) r in
    check_bool "mentions every task" true
      (List.for_all
         (fun (t : Task.t) -> contains subplot t.Task.name)
         (App.tasks app));
    check_bool "has ratio columns" true (contains subplot "vs CPU");
    let results = [ ((0.3, Formulation.No_obj), Ok r) ] in
    let csv = Fmt.str "%a" (fun ppf -> Report.fig2_csv ppf app) results in
    let lines =
      List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' csv)
    in
    (* header + one row per task *)
    check_int "csv rows" (1 + App.num_tasks app) (List.length lines);
    check_bool "csv header" true
      (contains (List.hd lines) "lambda_proposed_us");
    let table = Fmt.str "%a" Report.table1 (Experiment.table1_of_results results) in
    check_bool "table has status" true (contains table "heuristic")

(* Regression (PR 4): [fig2_csv] silently dropped Error configurations,
   so a failed solve left no trace in the exported CSV. A failed config
   now emits an auditable "# FAILED ..." comment line. *)
let test_fig2_csv_failed_line () =
  let app = fixture () in
  let results =
    [
      ( (0.4, Formulation.Min_transfers),
        Error (Experiment.No_solution { alpha = 0.4; solver_name = "milp" }) );
    ]
  in
  let csv = Fmt.str "%a" (fun ppf -> Report.fig2_csv ppf app) results in
  check_bool "has a FAILED comment" true (contains csv "# FAILED alpha=0.4");
  check_bool "names the objective" true (contains csv "objective=OBJ-DMAT");
  check_bool "carries the reason" true
    (contains csv "solver found no feasible plan")

let test_experiment_table1_rows () =
  let app = fixture () in
  let results =
    [
      ( (0.2, Formulation.No_obj),
        Experiment.run_config
          ~solver:(Experiment.milp ~time_limit_s:10.0 Formulation.No_obj)
          app ~alpha:0.2 );
    ]
  in
  let rows = Experiment.table1_of_results results in
  check_int "one row" 1 (List.length rows);
  let row = List.hd rows in
  check_bool "has time" true (row.Experiment.time_s <> None);
  check_bool "has transfers" true (row.Experiment.transfers <> None)

(* ------------------------------------------------------------------ *)
(* Certifier                                                           *)
(* ------------------------------------------------------------------ *)

let test_certify_heuristic () =
  let app = fixture () in
  let groups = Groups.compute app in
  let gamma = gamma_for app 0.3 in
  let sol = Option.get (Heuristic.solve_unchecked app groups ~gamma) in
  match Certify.certify ~source:Certify.Heuristic app groups ~gamma sol with
  | Error vs ->
    Alcotest.failf "heuristic solution uncertified: %a"
      Fmt.(list ~sep:comma (Certify.pp_violation app))
      vs
  | Ok cert ->
    check_bool "checks counted" true (cert.Certify.checks > 0);
    check_bool "renders" true
      (String.length (Fmt.str "%a" (Certify.pp app) cert) > 0)

let test_certify_milp_solve () =
  let app, groups, _gamma, r = solve_fixture Formulation.No_obj in
  ignore groups;
  check_bool "solver found a plan" true (r.Solve.solution <> None);
  match r.Solve.certificate with
  | None -> Alcotest.fail "no certificate on the MILP path"
  | Some (Error vs) ->
    Alcotest.failf "MILP solution uncertified: %a"
      Fmt.(list ~sep:comma (Certify.pp_violation app))
      vs
  | Some (Ok cert) ->
    check_bool "MILP source" true
      (cert.Certify.source = Certify.Milp_optimal
      || cert.Certify.source = Certify.Milp_incumbent);
    (* the residual pass over the raw assignment ran *)
    check_bool "raw assignment kept" true (r.Solve.x <> None)

(* an intentionally corrupted solution — transfer slots reversed, so
   reads are scheduled before the writes they depend on — must be
   rejected for EVERY source: ordering violations are structural *)
let corrupted_fixture () =
  let app = fixture () in
  let groups = Groups.compute app in
  let gamma = gamma_for app 0.3 in
  let sol = Option.get (Heuristic.solve_unchecked app groups ~gamma) in
  let plan = Solution.s0_plan app sol in
  let reversed = Array.of_list (List.rev plan) in
  let corrupted =
    Solution.make ~allocation:(Solution.allocation sol) ~slots:reversed
  in
  (app, groups, gamma, sol, corrupted)

let test_certify_rejects_corrupted () =
  let app, groups, gamma, sol, corrupted = corrupted_fixture () in
  (* sanity: the honest solution certifies, the corrupted one cannot *)
  check_bool "honest solution passes" true
    (Result.is_ok (Certify.certify ~source:Certify.Heuristic app groups ~gamma sol));
  List.iter
    (fun source ->
      match Certify.certify ~source app groups ~gamma corrupted with
      | Ok _ ->
        Alcotest.failf "corrupted solution certified as %s"
          (Certify.source_name source)
      | Error vs -> check_bool "violations reported" true (vs <> []))
    [ Certify.Milp_optimal; Certify.Milp_incumbent; Certify.Heuristic;
      Certify.Baseline ]

let test_certify_rejects_bad_milp_assignment () =
  let app = fixture () in
  let groups = Groups.compute app in
  let gamma = gamma_for app 0.3 in
  let sol = Option.get (Heuristic.solve_unchecked app groups ~gamma) in
  let inst = Formulation.make Formulation.No_obj app groups ~gamma in
  (* an all-zero vector claims "no comm is assigned anywhere": the
     residual checker must flag the raw model violations *)
  let x = Array.make (Milp.Problem.num_vars inst.Formulation.problem) 0.0 in
  match
    Certify.certify ~milp:(inst, x) ~source:Certify.Milp_optimal app groups
      ~gamma sol
  with
  | Ok _ -> Alcotest.fail "bogus MILP assignment certified"
  | Error vs ->
    check_bool "MILP residuals among violations" true
      (List.exists
         (function Certify.Milp_residual _ -> true | _ -> false)
         vs)

(* ------------------------------------------------------------------ *)
(* Pipeline                                                            *)
(* ------------------------------------------------------------------ *)

let test_pipeline_validate_app () =
  Alcotest.(check (list string)) "fixture is valid" [] (Pipeline.validate_app (fixture ()));
  (* duplicate logical label (same name, two writers) *)
  let platform = Platform.make ~n_cores:2 () in
  let tasks =
    [
      Task.make ~id:0 ~name:"w1" ~period:(ms 10) ~wcet:(ms 1) ~core:0;
      Task.make ~id:1 ~name:"w2" ~period:(ms 10) ~wcet:(ms 1) ~core:0;
      Task.make ~id:2 ~name:"r" ~period:(ms 10) ~wcet:(ms 1) ~core:1;
    ]
  in
  let labels =
    [
      Label.make ~id:0 ~name:"dup" ~size:8 ~writer:0 ~readers:[ 2 ];
      Label.make ~id:1 ~name:"dup" ~size:8 ~writer:1 ~readers:[ 2 ];
    ]
  in
  let app = App.make ~platform ~tasks ~labels in
  let problems = Pipeline.validate_app app in
  check_bool "two writers flagged" true
    (List.exists (fun m -> contains m "written by two tasks") problems);
  (match Pipeline.run app with
   | Error (Pipeline.Invalid_model _) -> ()
   | _ -> Alcotest.fail "pipeline accepted an invalid model");
  (* the model constructors reject degenerate components outright *)
  check_bool "zero-size label rejected" true
    (try
       ignore (Label.make ~id:0 ~name:"z" ~size:0 ~writer:0 ~readers:[ 1 ]);
       false
     with Invalid_argument _ -> true)

(* The ladder is sequential at any [jobs]: [jobs] only widens each
   rung's portfolio, so jobs 1 and 2 settle on the primary MILP rung
   after exactly one attempt. *)
let test_pipeline_accepts_fixture () =
  let app = fixture () in
  List.iter
    (fun jobs ->
      let what m = Fmt.str "jobs=%d: %s" jobs m in
      match Pipeline.run ~budget_s:30.0 ~jobs app with
      | Error f -> Alcotest.fail (what (Pipeline.failure_to_string f))
      | Ok o ->
        check_bool (what "MILP rung wins on the fixture") true
          (o.Pipeline.rung = Pipeline.Milp);
        check_bool (what "certified") true
          (o.Pipeline.certificate.Certify.checks > 0);
        Alcotest.(check (list (pair string bool)))
          (what "one attempt, accepted") [ ("milp", true) ]
          (List.map
             (fun (a : Pipeline.attempt) ->
               (Pipeline.rung_name a.Pipeline.rung, a.Pipeline.accepted))
             o.Pipeline.attempts);
        check_bool (what "renders") true
          (String.length (Fmt.str "%a" (Pipeline.pp_outcome app) o) > 0))
    [ 1; 2 ]

(* A lying MILP result: the corrupted solution carrying a forged
   certificate. *)
let forged_result corrupted ~options objective app groups ~gamma =
  let forged =
    { Certify.source = Certify.Milp_optimal; checks = 9999; warnings = [];
      time_s = 0.0 }
  in
  let inst = Formulation.make ~options objective app groups ~gamma in
  {
    Solve.solution = Some corrupted;
    x = None;
    certificate = Some (Ok forged);
    stats =
      {
        Solve.rounds = 1; c6_constraints = 0; nodes = 0; time_s = 0.0;
        status = Milp.Branch_bound.Optimal; gap = None; best_bound = None;
        milp_vars = Milp.Problem.num_vars inst.Formulation.problem;
        milp_constraints = Milp.Problem.num_constrs inst.Formulation.problem;
        lp = Milp.Branch_bound.lp_zero;
      };
    instance = inst;
  }

(* a solver that lies: returns a corrupted solution carrying a forged
   certificate. The pipeline must re-certify, reject both MILP rungs and
   degrade to the heuristic. *)
let test_pipeline_lying_solver_falls_back () =
  let app, _groups, _gamma, _sol, corrupted = corrupted_fixture () in
  let lying ~deadline_s:_ ~jobs:_ ~presolve:_ ~warm:_ ~chain:_ ~options
      objective app groups ~gamma =
    forged_result corrupted ~options objective app groups ~gamma
  in
  match Pipeline.run ~milp_solve:lying ~budget_s:30.0 app with
  | Error f -> Alcotest.fail (Pipeline.failure_to_string f)
  | Ok o ->
    check_bool "fell back to the heuristic" true
      (o.Pipeline.rung = Pipeline.Heuristic);
    let rejected r =
      List.exists
        (fun (a : Pipeline.attempt) ->
          a.Pipeline.rung = r && not a.Pipeline.accepted
          && contains a.Pipeline.reason "certification failed")
        o.Pipeline.attempts
    in
    check_bool "milp rung rejected by the certifier" true
      (rejected Pipeline.Milp);
    check_bool "perturbed retry also rejected" true
      (rejected Pipeline.Milp_perturbed);
    (* the accepted solution really is certified *)
    check_bool "own certificate, not the forged one" true
      (o.Pipeline.certificate.Certify.source = Certify.Heuristic)

(* a solver that lies on its first call (the primary rung) and solves
   honestly on its second (the perturbed rung, handed the 0.1 %-tightened
   gamma). The ladder must reject the primary, accept the perturbed rung,
   and the accepted plan must certify against the ORIGINAL gamma.

   The honest call seeds Solve.solve with the heuristic plan for the gamma
   it is handed. The pipeline's own perturbed rung starts cold, and a cold
   NO-OBJ answer on this fixture violates a Constraint-5 row by 1.02e-6,
   just past the certifier's 1e-6 residual tolerance (solver and
   certifier do not share one tolerance yet): that would reject the rung
   whatever the ladder does, so it is not what this test is about. *)
let test_pipeline_perturbed_rung_accepted () =
  let app, _groups, _gamma, _sol, corrupted = corrupted_fixture () in
  let gammas = ref [] in
  let flaky ~deadline_s ~jobs ~presolve ~warm:_ ~chain:_ ~options objective
      app groups ~gamma =
    gammas := gamma :: !gammas;
    if List.length !gammas = 1 then
      forged_result corrupted ~options objective app groups ~gamma
    else
      let warm = Heuristic.solve_unchecked app groups ~gamma in
      Solve.solve ~options ~deadline_s ~jobs ~presolve ?warm objective app
        groups ~gamma
  in
  match Pipeline.run ~milp_solve:flaky ~budget_s:30.0 app with
  | Error f -> Alcotest.fail (Pipeline.failure_to_string f)
  | Ok o ->
    check_bool "perturbed rung accepted" true
      (o.Pipeline.rung = Pipeline.Milp_perturbed);
    Alcotest.(check (list (pair string bool)))
      "milp rejected, then milp-perturbed accepted"
      [ ("milp", false); ("milp-perturbed", true) ]
      (List.map
         (fun (a : Pipeline.attempt) ->
           (Pipeline.rung_name a.Pipeline.rung, a.Pipeline.accepted))
         o.Pipeline.attempts);
    let gamma = gamma_for app 0.2 in
    (match List.rev !gammas with
     | [ primary; perturbed ] ->
       check_bool "primary solved against the original gamma" true
         (primary = gamma);
       check_bool "perturbed rung solved against a tightened gamma" true
         (perturbed <> gamma
         && Array.for_all2 (fun p g -> Time.compare p g <= 0) perturbed gamma)
     | _ -> Alcotest.fail "expected exactly two MILP solves");
    check_bool "outcome reports the original gamma" true
      (o.Pipeline.gamma = gamma);
    match
      Certify.certify ~source:Certify.Milp_optimal app (Groups.compute app)
        ~gamma o.Pipeline.solution
    with
    | Ok _ -> ()
    | Error vs ->
      Alcotest.fail
        (Fmt.str "accepted plan fails the original gamma: %a"
           (Certify.pp_violation app) (List.hd vs))

let test_pipeline_no_comms () =
  let platform = Platform.make ~n_cores:2 () in
  let tasks =
    [ Task.make ~id:0 ~name:"t" ~period:(ms 10) ~wcet:(ms 1) ~core:0 ]
  in
  let app = App.make ~platform ~tasks ~labels:[] in
  match Pipeline.run app with
  | Error Pipeline.No_communications -> ()
  | _ -> Alcotest.fail "expected No_communications"

(* regression for the shared-deadline refactor: an already-expired
   absolute deadline (a monotonic Clock instant) stops the lazy loop
   before the first round *)
let test_solve_expired_deadline () =
  let app = fixture () in
  let groups = Groups.compute app in
  let gamma = gamma_for app 0.3 in
  let t0 = Milp.Clock.now () in
  let r =
    Solve.solve ~deadline_s:(t0 -. 1.0) Formulation.No_obj app groups ~gamma
  in
  check_bool "returns promptly" true (Milp.Clock.now () -. t0 < 2.0);
  check_bool "no solution" true (r.Solve.solution = None);
  check_bool "no certificate" true (r.Solve.certificate = None);
  check_int "no rounds ran" 0 r.Solve.stats.Solve.rounds;
  check_bool "status unknown" true
    (r.Solve.stats.Solve.status = Milp.Branch_bound.Unknown)

let test_experiment_certificate_present () =
  let app = fixture () in
  match Experiment.run_config ~solver:Experiment.Heuristic app ~alpha:0.3 with
  | Error e -> Alcotest.fail (Experiment.error_to_string e)
  | Ok r ->
    check_bool "certificate attached" true
      (r.Experiment.certificate.Certify.checks > 0);
    check_bool "heuristic source" true
      (r.Experiment.certificate.Certify.source = Certify.Heuristic)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_heuristic_plans_validate =
  QCheck.Test.make ~name:"heuristic plans validate on random workloads"
    ~count:30
    QCheck.(int_range 0 2000)
    (fun seed ->
      let app = Workload.Generator.random ~seed () in
      let groups = Groups.compute app in
      if Comm.Set.is_empty (Groups.s0 groups) then true
      else
        match Rt_analysis.Sensitivity.gammas app ~alpha:0.5 with
        | None -> true
        | Some s ->
          (match
             Heuristic.solve app groups ~gamma:s.Rt_analysis.Sensitivity.gamma
           with
           | Ok sol -> Solution.validate app groups sol = Ok ()
           | Error _ ->
             (* validation failures are allowed only for Property-3
                overloads, which solve reports as an error *)
             true))

let prop_theorem1_on_random_workloads =
  QCheck.Test.make ~name:"Theorem 1: hyperperiod latency equals s0 latency"
    ~count:20
    QCheck.(int_range 0 2000)
    (fun seed ->
      let app = Workload.Generator.random ~seed () in
      let groups = Groups.compute app in
      if Comm.Set.is_empty (Groups.s0 groups) then true
      else
        match Rt_analysis.Sensitivity.gammas app ~alpha:0.5 with
        | None -> true
        | Some s ->
          (match
             Heuristic.solve app groups ~gamma:s.Rt_analysis.Sensitivity.gamma
           with
           | Error _ -> true
           | Ok sol ->
             let analytic = Solution.lambda_s0 app sol in
             let m = Baselines.run app groups Baselines.Proposed ~solution:(Some sol) in
             let ok = ref true in
             Array.iteri
               (fun i l ->
                 if not (Time.equal l m.Dma_sim.Sim.lambda.(i)) then ok := false)
               analytic;
             !ok))

let prop_milp_solutions_validate =
  QCheck.Test.make ~name:"MILP solutions validate on random workloads" ~count:10
    QCheck.(int_range 0 500)
    (fun seed ->
      let app = Workload.Generator.random ~seed () in
      let groups = Groups.compute app in
      if Comm.Set.is_empty (Groups.s0 groups) then true
      else
        match Rt_analysis.Sensitivity.gammas app ~alpha:0.5 with
        | None -> true
        | Some s ->
          let gamma = s.Rt_analysis.Sensitivity.gamma in
          let warm = Heuristic.solve_unchecked app groups ~gamma in
          let r =
            Solve.solve ~time_limit_s:15.0 ?warm Formulation.No_obj app groups
              ~gamma
          in
          (match r.Solve.solution with
           | Some sol -> Solution.validate app groups sol = Ok ()
           | None ->
             (* only acceptable when genuinely infeasible or out of time *)
             r.Solve.stats.Solve.status = Milp.Branch_bound.Infeasible
             || r.Solve.stats.Solve.status = Milp.Branch_bound.Unknown))

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_heuristic_plans_validate;
        prop_theorem1_on_random_workloads;
        prop_milp_solutions_validate;
      ]
  in
  Alcotest.run "letdma"
    [
      ( "formulation",
        [
          Alcotest.test_case "build" `Quick test_formulation_build;
          Alcotest.test_case "deterministic constraint order" `Slow
            test_formulation_deterministic_order;
          Alcotest.test_case "g_max too small" `Quick test_formulation_gmax_too_small;
          Alcotest.test_case "same-core readers rejected" `Quick
            test_formulation_rejects_same_core_readers;
          Alcotest.test_case "heuristic point feasible" `Quick
            test_encode_heuristic_feasible;
          Alcotest.test_case "feasible under full C6" `Quick
            test_encode_feasible_with_full_c6;
          Alcotest.test_case "bad order rejected" `Quick test_model_rejects_bad_order;
        ] );
      ( "solve",
        [
          Alcotest.test_case "NO-OBJ" `Quick test_solve_no_obj;
          Alcotest.test_case "OBJ-DEL" `Slow test_solve_min_delay;
          Alcotest.test_case "OBJ-DMAT" `Slow test_solve_min_transfers;
          Alcotest.test_case "without warm start" `Slow test_solve_without_warm;
          Alcotest.test_case "presolve default unchanged" `Slow
            test_solve_presolve_default_unchanged;
          Alcotest.test_case "infeasible gamma" `Quick test_solve_infeasible_gamma;
        ] );
      ( "solution",
        [
          Alcotest.test_case "projection" `Quick test_solution_projection;
          Alcotest.test_case "Theorem 1 (lambda peaks at s0)" `Quick
            test_theorem1_lambda_peaks_at_s0;
        ] );
      ( "heuristic",
        [
          Alcotest.test_case "validates" `Quick test_heuristic_validates;
          Alcotest.test_case "grouped granularity" `Quick
            test_heuristic_grouped_fewer_transfers;
          Alcotest.test_case "no communications" `Quick test_heuristic_no_comms;
        ] );
      ( "let-task",
        [
          Alcotest.test_case "segments" `Quick test_let_task_segments;
          Alcotest.test_case "interference monotone" `Quick
            test_let_task_interference_monotone;
          Alcotest.test_case "schedulable" `Quick test_let_task_schedulable;
          Alcotest.test_case "waters overhead" `Quick test_let_task_overhead_waters;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "names" `Quick test_baseline_names;
          Alcotest.test_case "Giotto-DMA-B grouping" `Quick test_giotto_dma_b_grouping;
          Alcotest.test_case "protocol beats DMA-A" `Quick
            test_proposed_beats_barrier_per_task;
          Alcotest.test_case "missing solution" `Quick test_baseline_requires_solution;
        ] );
      ( "certify",
        [
          Alcotest.test_case "heuristic path" `Quick test_certify_heuristic;
          Alcotest.test_case "MILP path" `Quick test_certify_milp_solve;
          Alcotest.test_case "corrupted solution rejected" `Quick
            test_certify_rejects_corrupted;
          Alcotest.test_case "bogus MILP assignment rejected" `Quick
            test_certify_rejects_bad_milp_assignment;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "model validation" `Quick test_pipeline_validate_app;
          Alcotest.test_case "accepts the fixture" `Quick
            test_pipeline_accepts_fixture;
          Alcotest.test_case "lying solver falls back" `Quick
            test_pipeline_lying_solver_falls_back;
          Alcotest.test_case "perturbed rung accepted" `Quick
            test_pipeline_perturbed_rung_accepted;
          Alcotest.test_case "no communications" `Quick test_pipeline_no_comms;
          Alcotest.test_case "presolve default unchanged" `Slow
            test_pipeline_presolve_default_unchanged;
          Alcotest.test_case "expired deadline" `Quick test_solve_expired_deadline;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "heuristic config" `Quick test_experiment_heuristic_config;
          Alcotest.test_case "certificate attached" `Quick
            test_experiment_certificate_present;
          Alcotest.test_case "unschedulable" `Quick test_experiment_unschedulable;
          Alcotest.test_case "no communications" `Quick test_experiment_no_comms;
          Alcotest.test_case "table1 rows" `Quick test_experiment_table1_rows;
          Alcotest.test_case "report rendering" `Quick test_report_rendering;
          Alcotest.test_case "fig2 csv keeps failed configs" `Quick
            test_fig2_csv_failed_line;
        ] );
      ("properties", qsuite);
    ]
