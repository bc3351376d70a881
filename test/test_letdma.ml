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

(* Every objective starts from the per-task heuristic plan. *)
let solve_fixture ?options objective =
  let app = fixture () in
  let groups = Groups.compute app in
  let gamma = gamma_for app 0.3 in
  let warm = Heuristic.solve_unchecked app groups ~gamma in
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
  (* OBJ-DEL searches from its start (NO-OBJ would prove it at 0
     nodes); the node limit, not the clock, ends both searches *)
  let solve () =
    let r =
      Solve.solve ~node_limit:50 ~time_limit_s:20.0 Formulation.Min_delay_ratio
        app groups ~gamma
    in
    (r.Solve.stats.Solve.nodes,
     r.Solve.stats.Solve.lp.Milp.Branch_bound.lp_pivots, r.Solve.x)
  in
  check_bool "same nodes, pivots and assignment across solves" true
    (solve () = solve ())

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

(* A solve without [~warm] starts from [Solve.warm_start]'s plan: it
   answers what the same solve handed that plan answers, under every
   objective (OBJ-DEL's search is cut by its node limit). *)
let test_solve_without_warm () =
  let app = fixture () in
  let groups = Groups.compute app in
  let gamma = gamma_for app 0.3 in
  List.iter
    (fun objective ->
      let name = Formulation.objective_name objective ^ ": " in
      let solve ?warm () =
        let r =
          Solve.solve ~node_limit:50 ~time_limit_s:20.0 ?warm objective app
            groups ~gamma
        in
        let st = r.Solve.stats in
        ( r.Solve.solution,
          (st.Solve.status, st.Solve.nodes,
           st.Solve.lp.Milp.Branch_bound.lp_pivots, r.Solve.x) )
      in
      let sol, without = solve () in
      let _, handed = solve ?warm:(Solve.warm_start objective app groups ~gamma) () in
      check_bool (name ^ "same status, nodes, pivots and assignment") true
        (without = handed);
      match sol with
      | None -> Alcotest.fail (name ^ "expected a solution without ~warm")
      | Some sol ->
        Alcotest.(check (result unit string)) (name ^ "validates") (Ok ())
          (Solution.validate app groups sol))
    [ Formulation.No_obj; Formulation.Min_transfers; Formulation.Min_delay_ratio ]

(* A caller's plan that fails the model's rows gives way to the
   heuristic start. On small seed 9, the per-task plan with its first
   read transfer moved to the front reads a label before its write, so
   it breaks a C7/C8 row of the NO-OBJ model: the solve starts from the
   per-task plan itself and proves it at 0 nodes, as a solve without
   [~warm] does. *)
let test_solve_rejected_warm () =
  let app = Workload.make ~labels_per_edge:1 ~seed:9 Workload.Small in
  let groups, gamma =
    match Experiment.prepare app ~alpha:0.2 with
    | Ok gg -> gg
    | Error e -> Alcotest.fail (Experiment.error_to_string e)
  in
  let per_task = Option.get (Heuristic.solve_unchecked app groups ~gamma) in
  let moved =
    let is_read = function
      | c :: _ -> c.Comm.kind = Comm.Read
      | [] -> false
    in
    let plan = Solution.s0_plan app per_task in
    let read = List.find is_read plan in
    Solution.make ~allocation:(Solution.allocation per_task)
      ~slots:(Array.of_list (read :: List.filter (fun t -> t != read) plan))
  in
  let inst = Formulation.make Formulation.No_obj app groups ~gamma in
  check_bool "the moved plan fails a C7/C8 row" true
    (match Formulation.encode inst moved with
     | Some x ->
       List.exists
         (fun row ->
           String.starts_with ~prefix:"C7_" row
           || String.starts_with ~prefix:"C8_" row)
         (Milp.Problem.check_solution inst.Formulation.problem x)
     | None -> false);
  let solve ?warm () =
    Solve.solve ~time_limit_s:20.0 ?warm Formulation.No_obj app groups ~gamma
  in
  let r = solve ~warm:moved () and plain = solve () in
  let st = r.Solve.stats in
  check_bool "optimal" true (st.Solve.status = Milp.Branch_bound.Optimal);
  check_int "no node" 0 st.Solve.nodes;
  check_int "no pivot" 0 st.Solve.lp.Milp.Branch_bound.lp_pivots;
  check_bool "certified" true
    (match r.Solve.certificate with Some (Ok _) -> true | _ -> false);
  check_bool "the plain solve's assignment" true (r.Solve.x = plain.Solve.x)

(* A small generator draw whose OBJ-DEL optimum lies below its MIP
   start, so the solve searches (NO-OBJ would prove the start at 0
   nodes): at alpha 0.2 an open search from the start takes 373 nodes
   to optimality, Solve's floor search 18. *)
let searching_draw () =
  let app = Workload.make ~labels_per_edge:1 ~seed:33 Workload.Small in
  match Experiment.prepare app ~alpha:0.2 with
  | Ok (groups, gamma) -> (app, groups, gamma)
  | Error e -> Alcotest.fail (Experiment.error_to_string e)

let objective_value (r : Solve.result) =
  Option.map
    (Milp.Linexpr.eval
       (snd (Milp.Problem.objective r.Solve.instance.Formulation.problem)))
    r.Solve.x

(* presolve is on by default; on an open search from the MIP start the
   reduction must not change what branch-and-bound returns — the
   perturbation is keyed on stable row ids precisely so reduced and
   original models solve along identical trajectories (same node count,
   same assignment). Solve's floor search is another matter: presolve
   propagates its cap and shortens it, so there the two agree on status
   and objective only. *)
let test_solve_presolve_default_unchanged () =
  let app, groups, gamma = searching_draw () in
  let objective = Formulation.Min_delay_ratio in
  let inst = Formulation.make objective app groups ~gamma in
  let p = inst.Formulation.problem in
  let start =
    Option.bind (Solve.warm_start objective app groups ~gamma)
      (Formulation.encode inst)
  in
  (* [basis_pool:0] keeps both searches on the cold per-node path: a warm
     restore may land on a different (equally optimal) degenerate vertex
     of the reduced model, which legitimately changes the branching
     trajectory — warm-vs-cold agreement has its own tests. *)
  let search presolve =
    Milp.Branch_bound.solve ~presolve ~basis_pool:0 ~time_limit_s:20.0
      ?incumbent:start
      ?bound:(Option.map snd (Formulation.objective_floor inst))
      p
  in
  let on = search true and off = search false in
  let module B = Milp.Branch_bound in
  check_bool "both solved" true (on.B.x <> None && off.B.x <> None);
  check_bool "same status" true (on.B.status = off.B.status);
  check_int "same node count" off.B.stats.B.nodes on.B.stats.B.nodes;
  (* the plans' exact encodings: the two LP vertices may sit ~1e-6 apart
     in the continuous variables (the kernel's perturbation) *)
  let exact x = Formulation.encode inst (Formulation.decode inst x) in
  (match (Option.bind on.B.x exact, Option.bind off.B.x exact) with
   | Some a, Some b ->
     check_bool "same assignment" true
       (Array.length a = Array.length b
        && Array.for_all2 (fun u v -> Float.abs (u -. v) < 1e-9) a b)
   | _ -> Alcotest.fail "expected plans");
  check_bool "searched" true (off.B.stats.B.nodes > 0);
  check_bool "presolve reduced something" true
    (on.B.stats.B.lp.B.presolve_rounds > 0);
  let solve presolve =
    Solve.solve ~presolve ~time_limit_s:20.0 objective app groups ~gamma
  in
  let on = solve true and off = solve false in
  check_bool "Solve: same status" true
    (on.Solve.stats.Solve.status = off.Solve.stats.Solve.status);
  check_bool "Solve: same objective" true
    (match (objective_value on, objective_value off) with
     | Some a, Some b -> Float.abs (a -. b) <= 1e-9
     | _ -> false)

(* A plan found by the search ends on an LP vertex of the kernel's
   perturbed model, whose rows sit up to ~1.8e-6 off the model's own.
   The plan it decodes to is exact, and Solve returns (and certifies)
   that plan's encoding, so the accepted plan certifies. *)
let test_solve_searched_certified () =
  let app, groups, gamma = searching_draw () in
  let objective = Formulation.Min_delay_ratio in
  let r = Solve.solve ~time_limit_s:20.0 objective app groups ~gamma in
  let inst = r.Solve.instance in
  let value x =
    Milp.Linexpr.eval (snd (Milp.Problem.objective inst.Formulation.problem)) x
  in
  check_bool "searched" true (r.Solve.stats.Solve.nodes > 0);
  (match
     ( r.Solve.x,
       Option.bind
         (Solve.warm_start objective app groups ~gamma)
         (Formulation.encode inst) )
   with
   | Some x, Some start ->
     check_bool "plan from the search, below its start" true
       (value x < value start)
   | _ -> Alcotest.fail "expected a plan and an encodable start");
  check_bool "the plan's exact encoding" true
    (Option.bind r.Solve.solution (Formulation.encode inst) = r.Solve.x);
  match r.Solve.certificate with
  | Some (Ok _) -> ()
  | Some (Error vs) ->
    Alcotest.failf "searched plan failed certification: %a"
      Fmt.(list ~sep:(any "; ") (Certify.pp_violation app))
      vs
  | None -> Alcotest.fail "the solve returned no plan"

let test_solve_infeasible_gamma () =
  let app = fixture () in
  let groups = Groups.compute app in
  (* gamma far below one transfer's overhead: infeasible *)
  let gamma = Array.make (App.num_tasks app) (Time.of_us 1) in
  let r = Solve.solve ~time_limit_s:10.0 Formulation.No_obj app groups ~gamma in
  check_bool "no solution" true (r.Solve.solution = None);
  check_bool "infeasible status" true
    (r.Solve.stats.Solve.status = Milp.Branch_bound.Infeasible)

(* The paper's case study end to end: WATERS NO-OBJ at alpha 0.2,
   started from the heuristic plan, yields a plan the certifier accepts. *)
let test_solve_waters_certified () =
  let app = Workload.Waters2019.make () in
  let groups = Groups.compute app in
  let gamma = gamma_for app 0.2 in
  let r = Solve.solve ~time_limit_s:30.0 Formulation.No_obj app groups ~gamma in
  check_bool "has a solution" true (Option.is_some r.Solve.solution);
  match r.Solve.certificate with
  | Some (Ok _) -> ()
  | Some (Error _) -> Alcotest.fail "certification rejected"
  | None -> Alcotest.fail "no certificate"

(* Every solve is one sequential search: [jobs] accepts only 1. *)
let test_solve_jobs_refused () =
  let app = fixture () in
  let groups = Groups.compute app in
  let gamma = gamma_for app 0.3 in
  match Solve.solve ~jobs:2 Formulation.No_obj app groups ~gamma with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "jobs = 2 must be refused"

(* A small generator draw at alpha 0.3. *)
let small_draw seed =
  let app = Workload.make ~labels_per_edge:1 ~seed Workload.Small in
  match Experiment.prepare app ~alpha:0.3 with
  | Ok (groups, gamma) -> (app, groups, gamma)
  | Error e -> Alcotest.fail (Experiment.error_to_string e)

(* Each min-max objective proves a floor plan at a 200-node budget,
   certified: draw 202282499 under OBJ-DMAT once answered nothing (a C7
   row rejected its grouped start and the open search found no plan),
   and draw 200262451 under OBJ-DEL ended at the node limit above the
   floor. *)
let test_solve_floor_search_proves () =
  List.iter
    (fun (seed, objective, expect) ->
      let name = Fmt.str "%d %s: " seed (Formulation.objective_name objective) in
      let app, groups, gamma = small_draw seed in
      let r =
        Solve.solve ~node_limit:200 ~time_limit_s:30.0 objective app groups
          ~gamma
      in
      let floor =
        snd (Option.get (Formulation.objective_floor r.Solve.instance))
      in
      check_bool (name ^ "optimal") true
        (r.Solve.stats.Solve.status = Milp.Branch_bound.Optimal);
      (match objective_value r with
       | Some v ->
         check_bool (name ^ "objective at the floor") true
           (Float.abs (v -. floor) <= 1e-6 && Float.abs (v -. expect) <= 1e-7)
       | None -> Alcotest.fail (name ^ "no plan"));
      check_bool (name ^ "certified") true
        (match r.Solve.certificate with Some (Ok _) -> true | _ -> false))
    [
      (202282499, Formulation.Min_transfers, 3.0);
      (200262451, Formulation.Min_delay_ratio, 0.0035914);
    ]

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

(* Property 1 for grouped reads: a grouped read transfer also carries
   other tasks' reads, and each of those tasks' writes goes before it.
   On draw 202282499 a C7 row once rejected the grouped plan. *)
let test_heuristic_grouped_start_passes () =
  let app, groups, gamma = small_draw 202282499 in
  let inst = Formulation.make Formulation.Min_transfers app groups ~gamma in
  match
    Option.bind
      (Heuristic.solve_unchecked ~granularity:Heuristic.Grouped app groups
         ~gamma)
      (Formulation.encode inst)
  with
  | Some x ->
    Alcotest.(check (list string)) "no violated row" []
      (Milp.Problem.check_solution inst.Formulation.problem x)
  | None -> Alcotest.fail "grouped plan does not encode"

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
    let table = Fmt.str "%a" Report.table1 (Experiment.table1 results) in
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
  let rows = Experiment.table1 results in
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

(* The ladder settles on the primary MILP rung after exactly one
   attempt. *)
let test_pipeline_accepts_fixture () =
  let app = fixture () in
  match Pipeline.run ~budget_s:30.0 app with
  | Error f -> Alcotest.fail (Pipeline.failure_to_string f)
  | Ok o ->
    check_bool "MILP rung wins on the fixture" true
      (o.Pipeline.rung = Pipeline.Milp);
    check_bool "certified" true (o.Pipeline.certificate.Certify.checks > 0);
    Alcotest.(check (list (pair string bool)))
      "one attempt, accepted" [ ("milp", true) ]
      (List.map
         (fun (a : Pipeline.attempt) ->
           (Pipeline.rung_name a.Pipeline.rung, a.Pipeline.accepted))
         o.Pipeline.attempts);
    check_bool "renders" true
      (String.length (Fmt.str "%a" (Pipeline.pp_outcome app) o) > 0)

(* A lying MILP result: the corrupted solution carrying a forged
   certificate. *)
let forged_result corrupted objective app groups ~gamma =
  let forged =
    { Certify.source = Certify.Milp_optimal; checks = 9999; warnings = [];
      time_s = 0.0 }
  in
  let inst = Formulation.make objective app groups ~gamma in
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
   certificate. The pipeline must re-certify, reject the MILP rung
   without asking the solver again, and degrade to the heuristic, whose
   plan certifies against the original gamma. *)
let test_pipeline_lying_solver_falls_back () =
  let app, _groups, _gamma, _sol, corrupted = corrupted_fixture () in
  let gammas = ref [] in
  let lying ~deadline_s:_ objective app groups ~gamma =
    gammas := gamma :: !gammas;
    forged_result corrupted objective app groups ~gamma
  in
  match Pipeline.run ~milp_solve:lying ~budget_s:30.0 app with
  | Error f -> Alcotest.fail (Pipeline.failure_to_string f)
  | Ok o ->
    let gamma = gamma_for app 0.2 in
    check_int "one MILP attempt" 1 (List.length !gammas);
    check_bool "solved against the original gamma" true (!gammas = [ gamma ]);
    Alcotest.(check (list (pair string bool)))
      "milp rejected, then heuristic accepted"
      [ ("milp", false); ("heuristic", true) ]
      (List.map
         (fun (a : Pipeline.attempt) ->
           (Pipeline.rung_name a.Pipeline.rung, a.Pipeline.accepted))
         o.Pipeline.attempts);
    (match o.Pipeline.attempts with
     | milp :: _ ->
       check_bool "milp rung rejected by the certifier" true
         (contains milp.Pipeline.reason "certification failed")
     | [] -> Alcotest.fail "no attempts recorded");
    check_bool "fell back to the heuristic" true
      (o.Pipeline.rung = Pipeline.Heuristic);
    (* the accepted solution really is certified *)
    check_bool "own certificate, not the forged one" true
      (o.Pipeline.certificate.Certify.source = Certify.Heuristic);
    check_bool "outcome reports the original gamma" true
      (o.Pipeline.gamma = gamma);
    match
      Certify.certify ~source:Certify.Heuristic app (Groups.compute app)
        ~gamma o.Pipeline.solution
    with
    | Ok _ -> ()
    | Error vs ->
      Alcotest.fail
        (Fmt.str "accepted plan fails the original gamma: %a"
           (Certify.pp_violation app) (List.hd vs))

(* The ladder's OBJ-DMAT MILP rung is warm-started like [solve]: with the
   grouped heuristic plan. On this draw that start lets the MILP rung
   prove 4 transfers at once; from a per-task start it fails
   certification near the limit and the heuristic answers with 5. *)
let test_pipeline_dmat_warm_start () =
  let app =
    Workload.Generator.random ~seed:2 ~config:Workload.Generator.small_config
      ()
  in
  match
    Pipeline.run ~objective:Formulation.Min_transfers ~alpha:0.3
      ~budget_s:30.0 app
  with
  | Error f -> Alcotest.fail (Pipeline.failure_to_string f)
  | Ok o ->
    Alcotest.(check (list (pair string bool)))
      "one attempt, accepted" [ ("milp", true) ]
      (List.map
         (fun (a : Pipeline.attempt) ->
           (Pipeline.rung_name a.Pipeline.rung, a.Pipeline.accepted))
         o.Pipeline.attempts);
    check_int "4 transfers" 4 (Solution.num_transfers o.Pipeline.solution)

let test_pipeline_no_comms () =
  let platform = Platform.make ~n_cores:2 () in
  let tasks =
    [ Task.make ~id:0 ~name:"t" ~period:(ms 10) ~wcet:(ms 1) ~core:0 ]
  in
  let app = App.make ~platform ~tasks ~labels:[] in
  match Pipeline.run app with
  | Error (Pipeline.Rejected Experiment.No_communications) -> ()
  | _ -> Alcotest.fail "expected No_communications"

(* An already-expired absolute deadline (a monotonic Clock instant)
   still runs round 1, which returns at once: under NO-OBJ the MIP start
   meets the floor and is proved before any LP. *)
let test_solve_expired_deadline () =
  let app = fixture () in
  let groups = Groups.compute app in
  let gamma = gamma_for app 0.3 in
  let t0 = Milp.Clock.now () in
  let r =
    Solve.solve ~deadline_s:(t0 -. 1.0) Formulation.No_obj app groups ~gamma
  in
  check_bool "returns promptly" true (Milp.Clock.now () -. t0 < 2.0);
  check_int "one round" 1 r.Solve.stats.Solve.rounds;
  check_int "no node" 0 r.Solve.stats.Solve.nodes;
  check_bool "status optimal" true
    (r.Solve.stats.Solve.status = Milp.Branch_bound.Optimal);
  check_bool "the start is the plan" true
    (Option.bind
       (Solve.warm_start Formulation.No_obj app groups ~gamma)
       (Formulation.encode r.Solve.instance)
     = r.Solve.x);
  check_bool "certified" true
    (match r.Solve.certificate with Some (Ok _) -> true | _ -> false)

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
          let r =
            Solve.solve ~time_limit_s:15.0 Formulation.No_obj app groups ~gamma
          in
          (match r.Solve.solution with
           | Some sol -> Solution.validate app groups sol = Ok ()
           | None ->
             (* only acceptable when genuinely infeasible or out of time *)
             r.Solve.stats.Solve.status = Milp.Branch_bound.Infeasible
             || r.Solve.stats.Solve.status = Milp.Branch_bound.Unknown))

(* The objective floor is a proven bound (OBJ-DEL's is the per-period
   union floor): it never exceeds the objective of a feasible heuristic
   plan, and branch-and-bound proves the same optimum with and without
   it. *)
let prop_objective_floor_sound =
  QCheck.Test.make ~name:"objective floor is sound on generator draws"
    ~count:8
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let app =
        Workload.Generator.random ~seed ~config:Workload.Generator.small_config
          ()
      in
      let groups = Groups.compute app in
      match Rt_analysis.Sensitivity.gammas app ~alpha:0.3 with
      | Some s
        when s.Rt_analysis.Sensitivity.schedulable
             && not (Comm.Set.is_empty (Groups.s0 groups)) ->
        let gamma = s.Rt_analysis.Sensitivity.gamma in
        List.for_all
          (fun objective ->
            let inst = Formulation.make objective app groups ~gamma in
            let p = inst.Formulation.problem in
            let _, floor = Option.get (Formulation.objective_floor inst) in
            let _, obj = Milp.Problem.objective p in
            let encoded granularity =
              match
                Option.bind
                  (Heuristic.solve_unchecked ~granularity app groups ~gamma)
                  (Formulation.encode inst)
              with
              | Some x when Milp.Problem.check_solution p x = [] -> Some x
              | _ -> None
            in
            let plans =
              List.filter_map encoded [ Heuristic.Grouped; Heuristic.Per_task ]
            in
            let below_plans =
              List.for_all
                (fun x -> floor <= Milp.Linexpr.eval obj x +. 1e-9)
                plans
            in
            let solve ?bound () =
              Milp.Branch_bound.solve ~node_limit:200 ?bound
                ?incumbent:(List.nth_opt plans 0) p
            in
            (* the objective of a proof's plan, on its exact encoding: an
               LP-vertex incumbent can read ~2e-6 off (the kernel's
               anti-degeneracy perturbation) *)
            let proved (r : Milp.Branch_bound.solution) =
              match (r.status, r.x) with
              | Milp.Branch_bound.Optimal, Some x ->
                Some
                  (match Formulation.encode inst (Formulation.decode inst x) with
                   | Some exact -> Milp.Linexpr.eval obj exact
                   | None -> Option.get r.obj)
              | _ -> None
            in
            let agree =
              match proved (solve ~bound:floor ()) with
              | None -> true
              | Some a -> (
                match proved (solve ()) with
                | None -> true
                | Some b -> Float.abs (a -. b) <= 1e-6)
            in
            below_plans && agree)
          [ Formulation.Min_transfers; Formulation.Min_delay_ratio ]
      | _ -> true)

(* No plan lies below the OBJ-DEL floor: with OBJ_L capped just under
   it, a search of the full-C6 model that does not know the floor finds
   no plan within 50 nodes. *)
let prop_no_plan_below_del_floor =
  QCheck.Test.make ~name:"no plan below the OBJ-DEL floor" ~count:20
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let app =
        Workload.Generator.random ~seed ~config:Workload.Generator.small_config
          ()
      in
      match Experiment.prepare app ~alpha:0.3 with
      | Error _ -> true
      | Ok (groups, gamma) ->
        let inst =
          Formulation.make
            ~options:{ Formulation.default_options with full_c6 = true }
            Formulation.Min_delay_ratio app groups ~gamma
        in
        let p = inst.Formulation.problem in
        let var, floor = Option.get (Formulation.objective_floor inst) in
        Milp.Problem.set_bounds ~hi:(floor -. 1e-7) p var;
        (Milp.Branch_bound.solve ~node_limit:50 ~time_limit_s:20.0 p)
          .Milp.Branch_bound.x
        = None)

(* Both heuristic granularities emit every write that Property 1 or 2
   puts before a read ahead of it: their encodings pass every C7 and C8
   row. *)
let prop_heuristic_plans_ordered =
  QCheck.Test.make ~name:"heuristic plans pass every C7/C8 row" ~count:40
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let app =
        Workload.Generator.random ~seed ~config:Workload.Generator.small_config
          ()
      in
      match Experiment.prepare app ~alpha:0.3 with
      | Error _ -> true
      | Ok (groups, gamma) ->
        let inst = Formulation.make Formulation.No_obj app groups ~gamma in
        List.for_all
          (fun granularity ->
            match
              Option.bind
                (Heuristic.solve_unchecked ~granularity app groups ~gamma)
                (Formulation.encode inst)
            with
            | None -> false
            | Some x ->
              List.for_all
                (fun row ->
                  not
                    (String.starts_with ~prefix:"C7_" row
                    || String.starts_with ~prefix:"C8_" row))
                (Milp.Problem.check_solution inst.Formulation.problem x))
          [ Heuristic.Grouped; Heuristic.Per_task ])

(* Wherever Solve proves optimality, the objective of its plan lies
   between the proven bound and the incumbent of a plain
   branch-and-bound search of the same draw's full-C6 model from the
   same start: a search of the whole model never beats a proof of the
   floor search. [false] names the first objective that breaks it. *)
let proofs_agree_with_full_c6 seed =
  let app =
    Workload.Generator.random ~seed ~config:Workload.Generator.small_config ()
  in
  match Experiment.prepare app ~alpha:0.3 with
  | Error _ -> None
  | Ok (groups, gamma) ->
    List.find_opt
      (fun objective ->
        let r =
          Solve.solve ~node_limit:200 ~time_limit_s:20.0 objective app groups
            ~gamma
        in
        match (r.Solve.stats.Solve.status, objective_value r) with
        | Milp.Branch_bound.Optimal, Some v ->
          let full =
            Formulation.make
              ~options:{ Formulation.default_options with full_c6 = true }
              objective app groups ~gamma
          in
          let p = full.Formulation.problem in
          let start =
            match
              Option.bind
                (Solve.warm_start objective app groups ~gamma)
                (Formulation.encode full)
            with
            | Some x when Milp.Problem.check_solution p x = [] -> Some x
            | _ -> None
          in
          let bb =
            Milp.Branch_bound.solve ~node_limit:100 ~time_limit_s:20.0
              ?incumbent:start p
          in
          let module B = Milp.Branch_bound in
          not
            (bb.B.stats.B.best_bound -. 1e-6 <= v
            && Option.fold ~none:true ~some:(fun inc -> v <= inc +. 1e-6)
                 bb.B.obj)
        | _ -> false)
      [ Formulation.Min_transfers; Formulation.Min_delay_ratio ]

(* Draws whose floor search proves a plan below the start: OBJ-DMAT over
   three and two lazy rounds (107 and 63 nodes; a full-C6 search finds
   the first one's optimum within 89 nodes), and OBJ-DEL. *)
let test_solve_floor_search_sound () =
  List.iter
    (fun seed ->
      match proofs_agree_with_full_c6 seed with
      | None -> ()
      | Some objective ->
        Alcotest.failf "draw %d, %s: a full-C6 search beats the proof" seed
          (Formulation.objective_name objective))
    [ 645158921; 898443853; 200262451 ]

let prop_floor_search_sound =
  QCheck.Test.make ~name:"Solve's proofs agree with a full-C6 search"
    ~count:4
    QCheck.(int_range 0 1_000_000)
    (fun seed -> proofs_agree_with_full_c6 seed = None)

(* Every OBJ-DMAT proof is a proof of the structural floor: a draw that
   Solve proves optimal at a 200-node budget proves classes - 1. A proof
   above the floor would come from an open search after an exhausted
   floor search, where branch-and-bound prunes on its LP bounds alone. *)
let prop_dmat_proves_at_floor =
  QCheck.Test.make ~name:"OBJ-DMAT proofs sit on the structural floor"
    ~count:100
    QCheck.(
      pair (int_range 0 1_000_000)
        (oneofl ~print:string_of_float [ 0.1; 0.2; 0.3; 0.4 ]))
    (fun (seed, alpha) ->
      let app =
        Workload.Generator.random ~seed ~config:Workload.Generator.small_config
          ()
      in
      match Experiment.prepare app ~alpha with
      | Error _ -> true
      | Ok (groups, gamma) -> (
        let r =
          Solve.solve ~node_limit:200 ~time_limit_s:20.0
            Formulation.Min_transfers app groups ~gamma
        in
        match (r.Solve.stats.Solve.status, objective_value r) with
        | Milp.Branch_bound.Optimal, Some v ->
          let _, floor =
            Option.get (Formulation.objective_floor r.Solve.instance)
          in
          Float.abs (v -. floor) <= 1e-6
        | _ -> true))

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_heuristic_plans_validate;
        prop_theorem1_on_random_workloads;
        prop_milp_solutions_validate;
        prop_objective_floor_sound;
        prop_heuristic_plans_ordered;
        prop_floor_search_sound;
        prop_dmat_proves_at_floor;
        prop_no_plan_below_del_floor;
      ]
  in
  Alcotest.run "letdma"
    [
      ( "formulation",
        [
          Alcotest.test_case "build" `Quick test_formulation_build;
          Alcotest.test_case "deterministic constraint order" `Slow
            test_formulation_deterministic_order;
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
          Alcotest.test_case "certified on WATERS" `Slow
            test_solve_waters_certified;
          Alcotest.test_case "jobs other than 1 refused" `Quick
            test_solve_jobs_refused;
          Alcotest.test_case "searched plan certifies at alpha 0.2" `Slow
            test_solve_searched_certified;
          Alcotest.test_case "rejected warm plan gives way to the heuristic"
            `Quick test_solve_rejected_warm;
          Alcotest.test_case "floor search proves at 200 nodes" `Quick
            test_solve_floor_search_proves;
          Alcotest.test_case "floor-search proofs agree with full C6" `Slow
            test_solve_floor_search_sound;
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
          Alcotest.test_case "grouped start passes every row" `Quick
            test_heuristic_grouped_start_passes;
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
          Alcotest.test_case "OBJ-DMAT warm start matches solve" `Quick
            test_pipeline_dmat_warm_start;
          Alcotest.test_case "no communications" `Quick test_pipeline_no_comms;
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
