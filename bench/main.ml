(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section VII) plus the ablations listed in DESIGN.md, then
   runs Bechamel micro-benchmarks of the pipeline's kernels.

   Sections:
     FIG1          — the protocol-vs-Giotto example schedule (Fig. 1)
     FIG2          — latency ratios for {alpha 0.2, 0.4} x {NO-OBJ,
                     OBJ-DMAT, OBJ-DEL} (Fig. 2 (a)-(f))
     TABLE1        — solver time and #DMA transfers (Table I)
     ALPHA         — the alpha in {0.1..0.5} sensitivity sweep (Sec. VII)
     ABLATION-C6   — lazy vs full Constraint-6 generation
     ABLATION-HEUR — greedy heuristic vs MILP on random workloads
     PARALLEL      — batch-sweep speedup vs jobs
     ABLATION-P3   — paper's Constraint 10 vs the strict Property-3 bound
     EXT-MULTIDMA  — the protocol on 1/2/4 parallel DMA channels
     EXT-AUTOMOTIVE — signal-heavy workloads (WATERS 2015 statistics)
     SCALING       — MILP size vs WATERS label-table granularity
     PRICING       — Dantzig vs devex vs Bland pricing on the TABLE1 /
                     SCALING LP relaxations and whole searches, plus
                     presolve-on/off end-to-end deltas
     WARMSTART     — cold vs warm-basis branch-and-bound node
                     reoptimization (the ci.sh pivot-reduction guard)
     ROBUSTNESS    — certifier overhead per solve, fault-injection sweep,
                     and the degradation ladder end to end
     MICRO         — Bechamel timings of the pipeline kernels

   The MILP time limit defaults to 30s per solve (the paper allowed 1h on
   a 40-core Xeon with CPLEX); override with LETDMA_BENCH_TIME_LIMIT.

   --smoke runs a fast subset (FIG1 + a trimmed PARALLEL section) meant
   to finish well under 30s — the CI gate in ci.sh. --parallel runs only
   the full PARALLEL section (the EXPERIMENTS.md speedup table).
   --pricing runs only the PRICING ablation (Dantzig vs devex vs Bland,
   presolve on/off). --json PREFIX additionally writes one
   PREFIX_<SECTION>.json per executed section with its wall-clock and any
   section-specific measurements, so the perf trajectory is machine-
   readable across PRs (ci.sh keeps BENCH_FIG1.json as its smoke guard). *)

open Rt_model
open Let_sem

let time_limit =
  match Sys.getenv_opt "LETDMA_BENCH_TIME_LIMIT" with
  | Some s -> (try float_of_string s with _ -> 30.0)
  | None -> 30.0

let section name =
  Fmt.pr "@.%s@.== %s ==@.%s@.@." (String.make 72 '=') name (String.make 72 '=')

(* Solver status as the PRICING and WARMSTART tables (and their committed
   BENCH_*.json baselines) spell it: a limit-hit incumbent reads
   "feasible(limit)". *)
let status_name = function
  | Milp.Branch_bound.Feasible -> "feasible(limit)"
  | st -> Milp.Branch_bound.status_name st

(* ------------------------------------------------------------------ *)
(* Machine-readable results: a dependency-free JSON emitter             *)
(* ------------------------------------------------------------------ *)

module Json = struct
  type t =
    | Num of float
    | Int of int
    | Str of string
    | Bool of bool
    | List of t list
    | Obj of (string * t) list

  let escape s =
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let rec write b = function
    | Num f ->
      if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.6g" f)
      else Buffer.add_string b "null"
    | Int i -> Buffer.add_string b (string_of_int i)
    | Str s ->
      Buffer.add_char b '"';
      Buffer.add_string b (escape s);
      Buffer.add_char b '"'
    | Bool v -> Buffer.add_string b (if v then "true" else "false")
    | List xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          write b x)
        xs;
      Buffer.add_char b ']'
    | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          write b (Str k);
          Buffer.add_char b ':';
          write b v)
        kvs;
      Buffer.add_char b '}'

  let to_string t =
    let b = Buffer.create 256 in
    write b t;
    Buffer.contents b
end

(* [--json PREFIX]: each executed section writes PREFIX_<NAME>.json with
   its wall-clock plus whatever fields the section {!emit}ted. *)
let json_prefix = ref None

let emitted : (string * Json.t) list ref = ref []

let emit key v = emitted := (key, v) :: !emitted

let run_section name f =
  emitted := [];
  let t0 = Unix.gettimeofday () in
  f ();
  let time_s = Unix.gettimeofday () -. t0 in
  match !json_prefix with
  | None -> ()
  | Some prefix ->
    let path = Printf.sprintf "%s_%s.json" prefix name in
    let doc =
      Json.Obj
        (("section", Json.Str name)
        :: ("time_s", Json.Num time_s)
        :: List.rev !emitted)
    in
    let oc = open_out path in
    output_string oc (Json.to_string doc);
    output_char oc '\n';
    close_out oc;
    Fmt.pr "@.[json] wrote %s@." path

(* ------------------------------------------------------------------ *)
(* FIG 1                                                               *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  section "FIG1: protocol schedule vs Giotto ordering (Fig. 1)";
  print_endline (Letdma.Fig1.render ())

(* Structured JSONL event trace of the FIG1 instance: a MILP solve
   (solver node/incumbent events) plus the protocol simulation (bridged
   simulator events), written next to the JSON baselines. Runs outside
   the timed FIG1 section so the committed FIG1 wall-clock stays
   trace-free — ci.sh compares fresh smoke runs against it. *)
let fig1_trace prefix =
  let path = Printf.sprintf "%s_FIG1_TRACE.jsonl" prefix in
  Obs.with_trace ~file:path (fun () ->
      let app = Letdma.Fig1.app () in
      let groups = Groups.compute app in
      let gamma = Letdma.Fig1.gamma app in
      let warm = Letdma.Heuristic.solve_unchecked app groups ~gamma in
      let r =
        Letdma.Solve.solve ~time_limit_s:10.0 ?warm
          Letdma.Formulation.Min_transfers app groups ~gamma
      in
      match r.Letdma.Solve.solution with
      | None -> ()
      | Some solution ->
        let m =
          Letdma.Baselines.run ~record_trace:true app groups
            Letdma.Baselines.Proposed ~solution:(Some solution)
        in
        Dma_sim.Obs_bridge.emit app m.Dma_sim.Sim.trace);
  Fmt.pr "[json] wrote %s (%d events)@." path (Obs.lines_written ())

(* ------------------------------------------------------------------ *)
(* FIG 2 + TABLE I (same six configurations)                           *)
(* ------------------------------------------------------------------ *)

let fig2_and_table1 app =
  section "FIG2: latency ratios on the WATERS 2019 case study (Fig. 2)";
  Fmt.pr "MILP time limit per solve: %.0fs@.@." time_limit;
  let results = Letdma.Experiment.fig2 ~time_limit_s:time_limit app in
  Fmt.pr "%a@." (fun ppf -> Letdma.Report.fig2 ppf app) results;
  section "TABLE1: solver running times and #DMA transfers (Table I)";
  Fmt.pr "%a@." Letdma.Report.table1
    (Letdma.Experiment.table1_of_results results)

(* ------------------------------------------------------------------ *)
(* ALPHA sweep                                                         *)
(* ------------------------------------------------------------------ *)

let alpha app =
  section "ALPHA: sensitivity sweep, alpha in {0.1 .. 0.5} (Sec. VII)";
  let results = Letdma.Experiment.alpha_sweep ~time_limit_s:time_limit app in
  Fmt.pr "%a@." Letdma.Report.alpha_sweep results

(* ------------------------------------------------------------------ *)
(* ABLATION: lazy vs full Constraint 6                                 *)
(* ------------------------------------------------------------------ *)

let ablation_c6 () =
  section "ABLATION-C6: lazy vs upfront Constraint-6 generation";
  (* small instances, solved cold: the search must converge for the model
     sizes and lazy rounds to show in honest end-to-end times *)
  let config =
    {
      Workload.Generator.default_config with
      Workload.Generator.n_tasks = 4;
      n_edges = 2;
      max_labels_per_edge = 2;
    }
  in
  List.iter
    (fun seed ->
      let app = Workload.Generator.random ~seed ~config () in
      let groups = Groups.compute app in
      match Rt_analysis.Sensitivity.gammas app ~alpha:0.3 with
      | None -> Fmt.pr "seed %d: unschedulable@." seed
      | Some s ->
        let gamma = s.Rt_analysis.Sensitivity.gamma in
        (* no warm start: the solver must search, so the model-size and
           lazy-round differences actually show in the running times *)
        let run name options =
          let r =
            Letdma.Solve.solve ~options ~time_limit_s:time_limit
              Letdma.Formulation.No_obj app groups ~gamma
          in
          Fmt.pr "  seed %3d %-6s: %a (solution: %s)@." seed name
            Letdma.Solve.pp_stats r.Letdma.Solve.stats
            (match r.Letdma.Solve.solution with
             | Some sol ->
               Fmt.str "%d transfers" (Letdma.Solution.num_transfers sol)
             | None -> "none")
        in
        run "lazy" Letdma.Formulation.default_options;
        run "full"
          {
            Letdma.Formulation.default_options with
            Letdma.Formulation.full_c6 = true;
          })
    [ 1; 7; 42 ]

(* ------------------------------------------------------------------ *)
(* ABLATION: heuristic vs MILP                                         *)
(* ------------------------------------------------------------------ *)

let ablation_heuristic () =
  section "ABLATION-HEUR: greedy heuristic vs MILP on random workloads";
  List.iter
    (fun seed ->
      let app = Workload.Generator.random ~seed () in
      List.iter
        (fun (name, solver) ->
          let t0 = Unix.gettimeofday () in
          match Letdma.Experiment.run_config ~solver app ~alpha:0.3 with
          | Ok r ->
            let m = Letdma.Experiment.metrics_of r Letdma.Baselines.Proposed in
            let worst = ref 0.0 in
            Array.iteri
              (fun i g ->
                if Time.compare g Time.zero > 0 then
                  worst :=
                    Float.max !worst
                      (float_of_int (Time.to_ns m.Dma_sim.Sim.lambda.(i))
                      /. float_of_int (Time.to_ns g)))
              r.Letdma.Experiment.gamma;
            Fmt.pr
              "  seed %3d %-10s: %2d transfers, worst lambda/gamma %.4f, %.2fs@."
              seed name r.Letdma.Experiment.num_transfers !worst
              (Unix.gettimeofday () -. t0)
          | Error e ->
            Fmt.pr "  seed %3d %-10s: failed (%s)@." seed name
              (Letdma.Experiment.error_to_string e))
        [
          ("heuristic", Letdma.Experiment.Heuristic);
          ( "milp-del",
            Letdma.Experiment.milp ~time_limit_s:time_limit
              Letdma.Formulation.Min_delay_ratio );
        ])
    [ 1; 7; 42 ]

(* ------------------------------------------------------------------ *)
(* ABLATION: paper's Constraint 10 vs strict Property 3                *)
(* ------------------------------------------------------------------ *)

let ablation_p3 app =
  section
    "ABLATION-P3: Constraint 10 as written (last read) vs strict (last transfer)";
  let groups = Groups.compute app in
  match Rt_analysis.Sensitivity.gammas app ~alpha:0.2 with
  | None -> Fmt.pr "unschedulable@."
  | Some s ->
    let gamma = s.Rt_analysis.Sensitivity.gamma in
    let warm = Letdma.Heuristic.solve_unchecked app groups ~gamma in
    List.iter
      (fun (name, strict) ->
        let options =
          {
            Letdma.Formulation.default_options with
            Letdma.Formulation.strict_property3 = strict;
          }
        in
        let r =
          Letdma.Solve.solve ~options ~time_limit_s:time_limit ?warm
            Letdma.Formulation.No_obj app groups ~gamma
        in
        match r.Letdma.Solve.solution with
        | Some sol ->
          let valid =
            match Letdma.Solution.validate app groups sol with
            | Ok () -> "passes strict validation"
            | Error e -> Fmt.str "FAILS strict validation: %s" e
          in
          Fmt.pr "  %-18s: %d transfers, %s@." name
            (Letdma.Solution.num_transfers sol)
            valid
        | None -> Fmt.pr "  %-18s: no solution@." name)
      [ ("strict (default)", true); ("paper (last read)", false) ]

(* ------------------------------------------------------------------ *)
(* EXTENSION: multiple DMA channels                                    *)
(* ------------------------------------------------------------------ *)

let extension_multi_dma app =
  section
    "EXT-MULTIDMA: parallel DMA channels (extension beyond the paper's single engine)";
  let groups = Groups.compute app in
  match Rt_analysis.Sensitivity.gammas app ~alpha:0.2 with
  | None -> Fmt.pr "unschedulable@."
  | Some s ->
    let gamma = s.Rt_analysis.Sensitivity.gamma in
    (match Letdma.Heuristic.solve_unchecked app groups ~gamma with
     | None -> Fmt.pr "no plan@."
     | Some sol ->
       let schedule = Letdma.Solution.schedule app groups sol in
       Fmt.pr "%-10s" "channels:";
       List.iter (fun c -> Fmt.pr " %12d" c) [ 1; 2; 4 ];
       Fmt.pr "@.";
       let metrics =
         List.map
           (fun c ->
             (c, Dma_sim.Sim.run app groups (Dma_sim.Sim.Dma_multi (c, schedule))))
           [ 1; 2; 4 ]
       in
       List.iter
         (fun (t : Task.t) ->
           Fmt.pr "%-10s" t.Task.name;
           List.iter
             (fun (_, m) ->
               Fmt.pr " %10.1fus"
                 (Time.to_us_float m.Dma_sim.Sim.lambda.(t.Task.id)))
             metrics;
           Fmt.pr "@.")
         (App.tasks app))

(* ------------------------------------------------------------------ *)
(* EXTENSION: automotive signal-heavy workloads (WATERS 2015 stats)    *)
(* ------------------------------------------------------------------ *)

let extension_automotive () =
  section
    "EXT-AUTOMOTIVE: signal-heavy workloads (WATERS 2015 benchmark statistics)";
  List.iter
    (fun seed ->
      let app = Workload.Automotive.generate ~seed () in
      let groups = Groups.compute app in
      let n_comms = Comm.Set.cardinal (Groups.s0 groups) in
      match Rt_analysis.Sensitivity.gammas app ~alpha:0.3 with
      | None -> Fmt.pr "  seed %d: unschedulable@." seed
      | Some s ->
        (match
           Letdma.Heuristic.solve_unchecked app groups
             ~gamma:s.Rt_analysis.Sensitivity.gamma
         with
         | None -> Fmt.pr "  seed %d: no communications@." seed
         | Some sol ->
           let worst approach =
             let m =
               Letdma.Baselines.run app groups approach ~solution:(Some sol)
             in
             Dma_sim.Sim.max_lambda_ratio app m
           in
           Fmt.pr
             "  seed %4d: %3d comms -> %2d transfers; max lambda/T: proposed \
              %.5f, CPU %.5f, DMA-A %.5f@."
             seed n_comms
             (Letdma.Solution.num_transfers sol)
             (worst Letdma.Baselines.Proposed)
             (worst Letdma.Baselines.Giotto_cpu)
             (worst Letdma.Baselines.Giotto_dma_a))
        |> ignore)
    [ 2015; 2019; 2021 ]

(* ------------------------------------------------------------------ *)
(* SCALING: instance size sweep                                        *)
(* ------------------------------------------------------------------ *)

let scaling () =
  section "SCALING: WATERS instance size sweep (labels per data flow)";
  List.iter
    (fun labels_per_edge ->
      let app = Workload.Waters2019.make ~labels_per_edge () in
      let groups = Groups.compute app in
      match Rt_analysis.Sensitivity.gammas app ~alpha:0.2 with
      | None -> Fmt.pr "  x%d: unschedulable@." labels_per_edge
      | Some s ->
        let gamma = s.Rt_analysis.Sensitivity.gamma in
        let t0 = Unix.gettimeofday () in
        let warm = Letdma.Heuristic.solve_unchecked app groups ~gamma in
        let t_heur = Unix.gettimeofday () -. t0 in
        let r =
          Letdma.Solve.solve ~time_limit_s:time_limit ?warm
            Letdma.Formulation.No_obj app groups ~gamma
        in
        Fmt.pr
          "  x%d: %2d comms, heuristic %5.3fs (%s), NO-OBJ MILP: %a@."
          labels_per_edge
          (Comm.Set.cardinal (Groups.s0 groups))
          t_heur
          (match warm with
           | Some sol -> Fmt.str "%d transfers" (Letdma.Solution.num_transfers sol)
           | None -> "-")
          Letdma.Solve.pp_stats r.Letdma.Solve.stats)
    [ 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* PRICING: entering-rule ablation + presolve on/off                   *)
(* ------------------------------------------------------------------ *)

let pricing_section () =
  section
    "PRICING: Dantzig vs devex vs Bland entering rules, presolve on/off";
  let rules =
    [
      ("dantzig", Milp.Simplex.Dantzig);
      ("devex", Milp.Simplex.Devex);
      ("bland", Milp.Simplex.Bland);
    ]
  in
  (* 1. LP relaxations of the WATERS models: TABLE1 granularity (x1)
     under all three paper objectives, SCALING granularity (x2) under the
     two cheap ones (Bland is skipped at x2 — it needs minutes to go
     nowhere). NO-OBJ is a pure phase-I feasibility solve, where devex
     deliberately prices with the Dantzig scan; the objective-bearing
     models exercise the devex phase-II candidate list. *)
  let lp_rows = ref [] in
  Fmt.pr "  LP relaxations (one root solve per rule, %.0fs deadline):@."
    time_limit;
  List.iter
    (fun (labels_per_edge, objective, oname, rule_names) ->
      let app = Workload.Waters2019.make ~labels_per_edge () in
      let groups = Groups.compute app in
      match Rt_analysis.Sensitivity.gammas app ~alpha:0.2 with
      | None -> Fmt.pr "    waters-x%d: unschedulable@." labels_per_edge
      | Some s ->
        let gamma = s.Rt_analysis.Sensitivity.gamma in
        let inst = Letdma.Formulation.make objective app groups ~gamma in
        let p = inst.Letdma.Formulation.problem in
        let iname = Fmt.str "waters-x%d/%s" labels_per_edge oname in
        Fmt.pr "    %s (%d vars x %d rows):@." iname
          (Milp.Problem.num_vars p) (Milp.Problem.num_constrs p);
        List.iter
          (fun (rname, rule) ->
            if List.mem rname rule_names then begin
              let cnt = Milp.Simplex_core.fresh_counters () in
              let t0 = Unix.gettimeofday () in
              let r =
                Milp.Simplex.solve ~pricing:rule ~counters:cnt
                  ~deadline:(Milp.Clock.now () +. time_limit)
                  p
              in
              let dt = Unix.gettimeofday () -. t0 in
              let status =
                match r with
                | Milp.Simplex.Optimal _ -> "optimal"
                | Milp.Simplex.Infeasible -> "infeasible"
                | Milp.Simplex.Unbounded -> "unbounded"
                | Milp.Simplex.Iteration_limit -> "limit"
              in
              let pv = cnt.Milp.Simplex_core.pivots in
              Fmt.pr
                "      %-8s: %-9s %6d pivots  %9d priced  %5d refreshes  \
                 %7.3fs@."
                rname status pv cnt.Milp.Simplex_core.pricing_scanned
                cnt.Milp.Simplex_core.pricing_refreshes dt;
              lp_rows :=
                Json.Obj
                  [
                    ("instance", Json.Str iname);
                    ("rule", Json.Str rname);
                    ("status", Json.Str status);
                    ("pivots", Json.Int pv);
                    ("priced", Json.Int cnt.Milp.Simplex_core.pricing_scanned);
                    ( "refreshes",
                      Json.Int cnt.Milp.Simplex_core.pricing_refreshes );
                    ("time_s", Json.Num dt);
                  ]
                :: !lp_rows
            end)
          rules)
    (let all = [ "dantzig"; "devex"; "bland" ] in
     let cheap = [ "dantzig"; "devex" ] in
     [
       (1, Letdma.Formulation.No_obj, "NO-OBJ", all);
       (1, Letdma.Formulation.Min_transfers, "OBJ-DMAT", all);
       (1, Letdma.Formulation.Min_delay_ratio, "OBJ-DEL", all);
       (2, Letdma.Formulation.No_obj, "NO-OBJ", cheap);
       (2, Letdma.Formulation.Min_transfers, "OBJ-DMAT", cheap);
     ]);
  emit "lp" (Json.List (List.rev !lp_rows));
  (* 2. Full branch-and-bound under each rule on small random instances
     the cold solver finishes: rule choice vs whole-search work. *)
  let milp_rows = ref [] in
  let config =
    {
      Workload.Generator.default_config with
      Workload.Generator.n_tasks = 4;
      n_edges = 2;
      max_labels_per_edge = 2;
    }
  in
  Fmt.pr "@.  branch-and-bound under each rule (cold, random instances):@.";
  List.iter
    (fun seed ->
      let app = Workload.Generator.random ~seed ~config () in
      let groups = Groups.compute app in
      match Rt_analysis.Sensitivity.gammas app ~alpha:0.3 with
      | None -> Fmt.pr "    seed %d: unschedulable@." seed
      | Some s ->
        let gamma = s.Rt_analysis.Sensitivity.gamma in
        let inst =
          Letdma.Formulation.make Letdma.Formulation.No_obj app groups ~gamma
        in
        List.iter
          (fun (rname, rule) ->
            let t0 = Unix.gettimeofday () in
            let bb =
              Milp.Branch_bound.solve ~pricing:rule
                ~deadline:(Milp.Clock.now () +. time_limit)
                inst.Letdma.Formulation.problem
            in
            let dt = Unix.gettimeofday () -. t0 in
            let st = bb.Milp.Branch_bound.stats in
            let lp = st.Milp.Branch_bound.lp in
            Fmt.pr
              "    seed %3d %-8s: %-9s %5d nodes  %7d pivots  %7.3fs@."
              seed rname
              (status_name bb.Milp.Branch_bound.status)
              st.Milp.Branch_bound.nodes lp.Milp.Branch_bound.lp_pivots dt;
            milp_rows :=
              Json.Obj
                [
                  ("instance", Json.Str (Fmt.str "random-%d" seed));
                  ("rule", Json.Str rname);
                  ( "status",
                    Json.Str (status_name bb.Milp.Branch_bound.status) );
                  ("nodes", Json.Int st.Milp.Branch_bound.nodes);
                  ("pivots", Json.Int lp.Milp.Branch_bound.lp_pivots);
                  ( "dual_pivots",
                    Json.Int lp.Milp.Branch_bound.lp_dual_pivots );
                  ("time_s", Json.Num dt);
                ]
              :: !milp_rows)
          rules)
    [ 1; 7; 42 ];
  emit "milp" (Json.List (List.rev !milp_rows));
  (* 3. Presolve on/off, end to end through the lazy-C6 driver: the
     default must not be slower than opting out. *)
  let pre_rows = ref [] in
  Fmt.pr "@.  presolve on/off, end to end (cold NO-OBJ solves):@.";
  let run_presolve iname solve_it =
    List.iter
      (fun presolve ->
        let r : Letdma.Solve.result = solve_it ~presolve in
        let st = r.Letdma.Solve.stats in
        let lp = st.Letdma.Solve.lp in
        Fmt.pr
          "    %-12s presolve=%-5b: %-15s %5d nodes  %7.3fs  \
           (rows dropped %d, bounds tightened %d)@."
          iname presolve
          (status_name st.Letdma.Solve.status)
          st.Letdma.Solve.nodes st.Letdma.Solve.time_s
          lp.Milp.Branch_bound.presolve_rows_dropped
          lp.Milp.Branch_bound.presolve_bounds_tightened;
        pre_rows :=
          Json.Obj
            [
              ("instance", Json.Str iname);
              ("presolve", Json.Bool presolve);
              ("status", Json.Str (status_name st.Letdma.Solve.status));
              ("nodes", Json.Int st.Letdma.Solve.nodes);
              ( "rows_dropped",
                Json.Int lp.Milp.Branch_bound.presolve_rows_dropped );
              ( "bounds_tightened",
                Json.Int lp.Milp.Branch_bound.presolve_bounds_tightened );
              ("time_s", Json.Num st.Letdma.Solve.time_s);
            ]
          :: !pre_rows)
      [ true; false ]
  in
  List.iter
    (fun seed ->
      let app = Workload.Generator.random ~seed ~config () in
      let groups = Groups.compute app in
      match Rt_analysis.Sensitivity.gammas app ~alpha:0.3 with
      | None -> Fmt.pr "    seed %d: unschedulable@." seed
      | Some s ->
        let gamma = s.Rt_analysis.Sensitivity.gamma in
        run_presolve
          (Fmt.str "random-%d" seed)
          (fun ~presolve ->
            Letdma.Solve.solve ~presolve ~time_limit_s:time_limit
              Letdma.Formulation.No_obj app groups ~gamma))
    [ 1; 7; 42 ];
  (let app = Workload.Waters2019.make () in
   let groups = Groups.compute app in
   match Rt_analysis.Sensitivity.gammas app ~alpha:0.2 with
   | None -> Fmt.pr "    waters-x1: unschedulable@."
   | Some s ->
     let gamma = s.Rt_analysis.Sensitivity.gamma in
     run_presolve "waters-x1"
       (fun ~presolve ->
         Letdma.Solve.solve ~presolve ~time_limit_s:time_limit
           Letdma.Formulation.No_obj app groups ~gamma));
  emit "presolve" (Json.List (List.rev !pre_rows))

(* ------------------------------------------------------------------ *)
(* WARMSTART: cold vs warm-basis node reoptimization                   *)
(* ------------------------------------------------------------------ *)

(* Cold ([basis_pool:0]) vs warm (default pool) best-first branch-and-
   bound at jobs=1 on the WATERS OBJ-DMAT model — each of its node LPs
   costs seconds from scratch, so this is exactly where parent-basis
   dual reoptimization pays. Both runs receive the same heuristic warm
   incumbent and the same node budget, so they are comparable point for
   point; ci.sh asserts identical final objectives with >= 25% fewer
   total pivots (primal + dual) for the warm run. A small random
   instance the solver finishes rides along for the optimal-vs-optimal
   comparison. *)
let warmstart_section () =
  section "WARMSTART: cold vs warm-basis B&B node reoptimization (jobs=1)";
  let rows = ref [] in
  let compare_runs iname ?incumbent ?(node_limit = 200_000) ?(presolve = true)
      ~limit_s p =
    Fmt.pr "    %s (%d vars x %d rows, node budget %d):@." iname
      (Milp.Problem.num_vars p) (Milp.Problem.num_constrs p) node_limit;
    let run mode ~basis_pool =
      let t0 = Unix.gettimeofday () in
      let r =
        Milp.Branch_bound.solve ~time_limit_s:limit_s ~node_limit ?incumbent
          ~presolve ~basis_pool p
      in
      let dt = Unix.gettimeofday () -. t0 in
      let st = r.Milp.Branch_bound.stats in
      let lp = st.Milp.Branch_bound.lp in
      let total =
        lp.Milp.Branch_bound.lp_pivots + lp.Milp.Branch_bound.lp_dual_pivots
      in
      Fmt.pr
        "      %-4s: %-15s %4d nodes  %7d pivots (%d dual)  hits=%d \
         misses=%d saved=%d evicted=%d  %7.3fs@."
        mode
        (status_name r.Milp.Branch_bound.status)
        st.Milp.Branch_bound.nodes total lp.Milp.Branch_bound.lp_dual_pivots
        lp.Milp.Branch_bound.lp_warm_hits lp.Milp.Branch_bound.lp_warm_misses
        lp.Milp.Branch_bound.lp_dual_pivots_saved
        lp.Milp.Branch_bound.lp_basis_evictions dt;
      rows :=
        Json.Obj
          [
            ("instance", Json.Str iname);
            ("mode", Json.Str mode);
            ("status", Json.Str (status_name r.Milp.Branch_bound.status));
            ("nodes", Json.Int st.Milp.Branch_bound.nodes);
            ("pivots", Json.Int total);
            ("dual_pivots", Json.Int lp.Milp.Branch_bound.lp_dual_pivots);
            ("warm_hits", Json.Int lp.Milp.Branch_bound.lp_warm_hits);
            ("warm_misses", Json.Int lp.Milp.Branch_bound.lp_warm_misses);
            ( "pivots_saved",
              Json.Int lp.Milp.Branch_bound.lp_dual_pivots_saved );
            ("evictions", Json.Int lp.Milp.Branch_bound.lp_basis_evictions);
            ( "obj",
              match r.Milp.Branch_bound.obj with
              | Some o -> Json.Num o
              | None -> Json.Str "none" );
            ("time_s", Json.Num dt);
          ]
        :: !rows;
      total
    in
    let cold = run "cold" ~basis_pool:0 in
    let warm = run "warm" ~basis_pool:128 in
    if cold > 0 then
      Fmt.pr "      warm/cold pivot ratio: %.2f (%.0f%% reduction)@."
        (float_of_int warm /. float_of_int cold)
        (100.0 *. (1.0 -. (float_of_int warm /. float_of_int cold)))
  in
  Fmt.pr "  WATERS OBJ-DMAT, node-limited (the acceptance instance):@.";
  (let app = Workload.Waters2019.make ~labels_per_edge:1 () in
   let groups = Groups.compute app in
   match Rt_analysis.Sensitivity.gammas app ~alpha:0.2 with
   | None -> Fmt.pr "    waters-x1: unschedulable@."
   | Some s ->
     let gamma = s.Rt_analysis.Sensitivity.gamma in
     let inst =
       Letdma.Formulation.make Letdma.Formulation.Min_transfers app groups
         ~gamma
     in
     let incumbent =
       Option.bind
         (Letdma.Heuristic.solve_unchecked
            ~granularity:Letdma.Heuristic.Grouped app groups ~gamma)
         (Letdma.Formulation.encode inst)
     in
     (* presolve off for BOTH arms: its bound-shifting rescales this
        instance so badly that basis reconstruction aborts (see the
        damage guard in Simplex_core.restore), which would measure the
        fallback, not the warm start. random-1 below keeps the default
        presolve to show the two compose. *)
     compare_runs "waters-x1/OBJ-DMAT" ?incumbent ~node_limit:5
       ~presolve:false ~limit_s:120.0 inst.Letdma.Formulation.problem);
  Fmt.pr "@.  random instance solved to optimality (full search):@.";
  (let config =
     {
       Workload.Generator.default_config with
       Workload.Generator.n_tasks = 4;
       n_edges = 2;
       max_labels_per_edge = 2;
     }
   in
   let app = Workload.Generator.random ~seed:1 ~config () in
   let groups = Groups.compute app in
   match Rt_analysis.Sensitivity.gammas app ~alpha:0.3 with
   | None -> Fmt.pr "    random-1: unschedulable@."
   | Some s ->
     let gamma = s.Rt_analysis.Sensitivity.gamma in
     let inst =
       Letdma.Formulation.make Letdma.Formulation.No_obj app groups ~gamma
     in
     compare_runs "random-1" ~limit_s:time_limit
       inst.Letdma.Formulation.problem);
  emit "warmstart" (Json.List (List.rev !rows))

(* ------------------------------------------------------------------ *)
(* ROBUSTNESS: certifier overhead + fault-injection sweep              *)
(* ------------------------------------------------------------------ *)

let robustness app =
  section
    "ROBUSTNESS: certifier overhead, fault-injection sweep, degradation ladder";
  let groups = Groups.compute app in
  match Rt_analysis.Sensitivity.gammas app ~alpha:0.2 with
  | None -> Fmt.pr "unschedulable@."
  | Some s ->
    let gamma = s.Rt_analysis.Sensitivity.gamma in
    (* certifier overhead per solve: full independent re-verification
       (MILP residuals + layouts + Properties 1-3 + deadlines) relative
       to the MILP solve it vouches for; the budget is <5% *)
    let warm = Letdma.Heuristic.solve_unchecked app groups ~gamma in
    let r =
      Letdma.Solve.solve ~time_limit_s:time_limit ?warm
        Letdma.Formulation.No_obj app groups ~gamma
    in
    (match (r.Letdma.Solve.solution, r.Letdma.Solve.x) with
     | Some sol, Some x ->
       let n = 25 in
       let t0 = Unix.gettimeofday () in
       for _ = 1 to n do
         ignore
           (Letdma.Certify.certify
              ~milp:(r.Letdma.Solve.instance, x)
              ~source:Letdma.Certify.Milp_optimal app groups ~gamma sol)
       done;
       let cert_s = (Unix.gettimeofday () -. t0) /. float_of_int n in
       let solve_s = r.Letdma.Solve.stats.Letdma.Solve.time_s in
       Fmt.pr
         "  certifier: %.3fms per certification vs %.3fs MILP solve \
          (overhead %.3f%%)@."
         (1000.0 *. cert_s) solve_s
         (100.0 *. cert_s /. solve_s)
     | _ -> Fmt.pr "  no MILP solution to certify@.");
    (* fault sweep on the certified heuristic schedule *)
    (match warm with
     | None -> ()
     | Some sol ->
       let schedule = Letdma.Solution.schedule app groups sol in
       Fmt.pr "  fault sweep (seed 42):@.";
       List.iter
         (fun rep -> Fmt.pr "    %a@." Dma_sim.Robustness.pp_report rep)
         (Dma_sim.Robustness.sweep ~seed:42
            ~intensities:[ 0.0; 0.1; 0.5; 1.0; 2.0; 5.0; 10.0 ]
            app groups schedule));
    (* the degradation ladder end to end *)
    (match Letdma.Pipeline.run ~budget_s:time_limit app with
     | Ok o ->
       Fmt.pr "  pipeline: accepted rung %s in %.2fs (%d certificate checks)@."
         (Letdma.Pipeline.rung_name o.Letdma.Pipeline.rung)
         o.Letdma.Pipeline.total_time_s
         o.Letdma.Pipeline.certificate.Letdma.Certify.checks
     | Error f -> Fmt.pr "  pipeline: %s@." (Letdma.Pipeline.failure_to_string f))

(* ------------------------------------------------------------------ *)
(* RESILIENCE: checkpoint/interrupt/resume smoke                      *)
(* ------------------------------------------------------------------ *)

(* The crash-resilience spine end to end on a small generator instance:
   a durable baseline solve (checkpoint cadence on, file auto-removed on
   the conclusive exit), a controlled mid-tree interrupt leaving a
   checkpoint on disk, and a resume that must land on the same objective
   with the same cumulative node count. ci.sh drives the same flow
   through the CLI (chaos gate); this section keeps the library-level
   numbers machine-readable. *)
let resilience_section () =
  section "RESILIENCE: checkpoint/resume round trip";
  (* first small_config instance that is schedulable and explores a
     real tree (same selection rule as test_resilience) *)
  let picked = ref None in
  let seed = ref 1 in
  while !picked = None && !seed <= 60 do
    let app =
      Workload.Generator.random ~seed:!seed
        ~config:Workload.Generator.small_config ()
    in
    let groups = Groups.compute app in
    (if not (Comm.Set.is_empty (Groups.s0 groups)) then
       match Rt_analysis.Sensitivity.gammas app ~alpha:0.3 with
       | Some s when s.Rt_analysis.Sensitivity.schedulable ->
         let gamma = s.Rt_analysis.Sensitivity.gamma in
         let r =
           Letdma.Solve.solve ~time_limit_s:time_limit Letdma.Formulation.No_obj
             app groups ~gamma
         in
         let n = r.Letdma.Solve.stats.Letdma.Solve.nodes in
         if
           r.Letdma.Solve.stats.Letdma.Solve.status
           = Milp.Branch_bound.Optimal
           && n >= 10 && n <= 500
         then picked := Some (!seed, app, groups, gamma, r)
       | _ -> ());
    incr seed
  done;
  match !picked with
  | None -> Fmt.pr "  no suitable generator instance in 60 seeds@."
  | Some (seed, app, groups, gamma, baseline) ->
    let nodes (r : Letdma.Solve.result) =
      r.Letdma.Solve.stats.Letdma.Solve.nodes
    in
    emit "seed" (Json.Int seed);
    emit "baseline_nodes" (Json.Int (nodes baseline));
    let file = Filename.temp_file "bench_resilience" ".json" in
    Fun.protect
      ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
      (fun () ->
        let interrupted =
          Letdma.Solve.solve ~time_limit_s:time_limit ~checkpoint_file:file
            ~checkpoint_every:8
            ~interrupt_after_nodes:(nodes baseline / 2)
            Letdma.Formulation.No_obj app groups ~gamma
        in
        let ck_bytes =
          if Sys.file_exists file then (Unix.stat file).Unix.st_size else 0
        in
        emit "interrupted_nodes" (Json.Int (nodes interrupted));
        emit "checkpoint_bytes" (Json.Int ck_bytes);
        let resumed =
          match Resilience.Checkpoint.load file with
          | Error m ->
            Fmt.pr "  checkpoint unreadable: %s@." m;
            None
          | Ok ck ->
            Some
              (Letdma.Solve.solve ~time_limit_s:time_limit
                 ~checkpoint_file:file ~resume:ck Letdma.Formulation.No_obj
                 app groups ~gamma)
        in
        match resumed with
        | None -> ()
        | Some resumed ->
          let identical =
            nodes resumed = nodes baseline
            && resumed.Letdma.Solve.x = baseline.Letdma.Solve.x
          in
          emit "resumed_nodes" (Json.Int (nodes resumed));
          emit "trajectory_identical" (Json.Bool identical);
          emit "checkpoint_removed_after_resume"
            (Json.Bool (not (Sys.file_exists file)));
          Fmt.pr
            "  seed %d: baseline %d nodes; interrupt at %d left %d bytes; \
             resume %d nodes (%s)@."
            seed (nodes baseline) (nodes interrupted) ck_bytes (nodes resumed)
            (if identical then "trajectory identical" else "DIVERGED"));
    (* the paper's instance: waters-x1 OBJ-DMAT in the WARMSTART bench
       configuration (heuristic incumbent, presolve off, 5-node budget),
       interrupted after 2 nodes and resumed to the same budget — the
       resumed run must land on the identical incumbent *)
    (let app = Workload.Waters2019.make ~labels_per_edge:1 () in
     let groups = Groups.compute app in
     match Rt_analysis.Sensitivity.gammas app ~alpha:0.2 with
     | None -> Fmt.pr "  waters-x1: unschedulable@."
     | Some s ->
       let gamma = s.Rt_analysis.Sensitivity.gamma in
       let inst =
         Letdma.Formulation.make Letdma.Formulation.Min_transfers app groups
           ~gamma
       in
       let incumbent =
         Option.bind
           (Letdma.Heuristic.solve_unchecked
              ~granularity:Letdma.Heuristic.Grouped app groups ~gamma)
           (Letdma.Formulation.encode inst)
       in
       let p = inst.Letdma.Formulation.problem in
       let solve ?hooks ?on_checkpoint ?resume () =
         Milp.Branch_bound.solve ~time_limit_s:120.0 ~node_limit:5 ?incumbent
           ~presolve:false ?hooks ?on_checkpoint ?resume p
       in
       let wbase = solve () in
       let seen = ref 0 in
       let captured = ref None in
       let hooks =
         {
           Milp.Branch_bound.no_hooks with
           Milp.Branch_bound.should_stop = (fun () -> !seen >= 2);
           on_node =
             (fun ~node:_ ~depth:_ ~bound:_ ~pivots:_ -> incr seen);
         }
       in
       ignore (solve ~hooks ~on_checkpoint:(fun ck -> captured := Some ck) ());
       match !captured with
       | None -> Fmt.pr "  waters-x1: interrupt emitted no checkpoint@."
       | Some ck ->
         (* through the on-disk format, as a real resume would go *)
         let doc =
           Resilience.Checkpoint.make
             ~fingerprint:(Resilience.Checkpoint.fingerprint p) ck
         in
         let bytes = String.length (Resilience.Checkpoint.to_string doc) in
         let ck =
           match
             Resilience.Checkpoint.of_string
               (Resilience.Checkpoint.to_string doc)
           with
           | Ok d -> d.Resilience.Checkpoint.ck_state
           | Error _ -> ck
         in
         let wres = solve ~resume:ck () in
         let identical =
           wres.Milp.Branch_bound.obj = wbase.Milp.Branch_bound.obj
           && wres.Milp.Branch_bound.x = wbase.Milp.Branch_bound.x
           && wres.Milp.Branch_bound.stats.Milp.Branch_bound.nodes
              = wbase.Milp.Branch_bound.stats.Milp.Branch_bound.nodes
         in
         emit "waters_checkpoint_bytes" (Json.Int bytes);
         emit "waters_identical" (Json.Bool identical);
         (match wbase.Milp.Branch_bound.obj with
          | Some o -> emit "waters_obj" (Json.Num o)
          | None -> ());
         Fmt.pr
           "  waters-x1/OBJ-DMAT: interrupt at node 2 (%d-byte checkpoint), \
            resumed to the 5-node budget: %s@."
           bytes
           (if identical then "identical incumbent" else "DIVERGED"))

(* ------------------------------------------------------------------ *)
(* PARALLEL: speedup vs jobs                                           *)
(* ------------------------------------------------------------------ *)

let parallel_section ~smoke () =
  section "PARALLEL: batch sweeps on OCaml 5 domains";
  Fmt.pr "  Domain.recommended_domain_count = %d@.@."
    (Domain.recommended_domain_count ());
  (* batch sweep: independent random instances farmed over a pool; the
     jobs=1 run is the sequential baseline for the speedup column. The
     seeds are instances the cold solver finishes in well under a
     second, so every configuration completes and the speedup measures
     real work, not timeouts. *)
  let seeds = [ 2; 3; 4; 6; 11; 12; 15; 16 ] in
  let config =
    {
      Workload.Generator.default_config with
      Workload.Generator.n_tasks = 4;
      n_edges = 2;
      max_labels_per_edge = 2;
    }
  in
  let per_solve_limit = if smoke then 5.0 else time_limit in
  let solve_one ~deadline seed =
    let app = Workload.Generator.random ~seed ~config () in
    let groups = Groups.compute app in
    match Rt_analysis.Sensitivity.gammas app ~alpha:0.3 with
    | None -> false
    | Some s ->
      let deadline_s =
        if Float.is_finite deadline then Some deadline else None
      in
      let r =
        Letdma.Solve.solve ~time_limit_s:per_solve_limit ?deadline_s
          Letdma.Formulation.No_obj app groups
          ~gamma:s.Rt_analysis.Sensitivity.gamma
      in
      Option.is_some r.Letdma.Solve.solution
  in
  let t_seq = ref nan in
  List.iter
    (fun jobs ->
      let t0 = Milp.Clock.now () in
      let outcomes = Parallel.Sweep.map ~jobs solve_one seeds in
      let solved =
        List.length
          (List.filter
             (fun (o : _ Parallel.Sweep.outcome) -> o.result = Ok true)
             outcomes)
      in
      let dt = Milp.Clock.now () -. t0 in
      if jobs = 1 then t_seq := dt;
      Fmt.pr "  sweep %d instances  jobs=%d: %6.2fs  (%d solved, speedup x%.2f)@."
        (List.length seeds) jobs dt solved (!t_seq /. dt))
    (if smoke then [ 1; 2 ] else [ 1; 2; 4; 8 ])

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let micro app =
  section "MICRO: Bechamel timings of the pipeline kernels";
  let open Bechamel in
  let groups = Groups.compute app in
  let gamma =
    match Rt_analysis.Sensitivity.gammas app ~alpha:0.2 with
    | Some s -> s.Rt_analysis.Sensitivity.gamma
    | None -> Array.make (App.num_tasks app) Rt_model.Time.zero
  in
  let solution =
    match Letdma.Heuristic.solve_unchecked app groups ~gamma with
    | Some s -> s
    | None -> failwith "no heuristic solution"
  in
  let inst =
    Letdma.Formulation.make Letdma.Formulation.No_obj app groups ~gamma
  in
  let tests =
    [
      (* Fig. 2 pipeline stages *)
      Test.make ~name:"fig2/groups-compute (Algorithm 1)"
        (Staged.stage (fun () -> ignore (Groups.compute app)));
      Test.make ~name:"fig2/sensitivity-gamma"
        (Staged.stage (fun () ->
             ignore (Rt_analysis.Sensitivity.gammas app ~alpha:0.2)));
      Test.make ~name:"fig2/heuristic-solve"
        (Staged.stage (fun () ->
             ignore (Letdma.Heuristic.solve_unchecked app groups ~gamma)));
      Test.make ~name:"fig2/simulate-proposed (1 hyperperiod)"
        (Staged.stage (fun () ->
             ignore
               (Letdma.Baselines.run app groups Letdma.Baselines.Proposed
                  ~solution:(Some solution))));
      Test.make ~name:"fig2/simulate-giotto-cpu (1 hyperperiod)"
        (Staged.stage (fun () ->
             ignore
               (Letdma.Baselines.run app groups Letdma.Baselines.Giotto_cpu
                  ~solution:None)));
      (* Table I building blocks *)
      Test.make ~name:"table1/milp-model-build (Constraints 1-10)"
        (Staged.stage (fun () ->
             ignore
               (Letdma.Formulation.make Letdma.Formulation.No_obj app groups
                  ~gamma)));
      Test.make ~name:"table1/lp-relaxation (simplex)"
        (Staged.stage (fun () ->
             ignore (Milp.Simplex.solve inst.Letdma.Formulation.problem)));
      (* Fig. 1 *)
      Test.make ~name:"fig1/trace-render"
        (Staged.stage (fun () -> ignore (Letdma.Fig1.render ())));
    ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.8) ~kde:None () in
  let estimates = ref [] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let stats = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] ->
            estimates := (name, Json.Num est) :: !estimates;
            let t, unit_ =
              if est > 1.0e9 then (est /. 1.0e9, "s")
              else if est > 1.0e6 then (est /. 1.0e6, "ms")
              else if est > 1.0e3 then (est /. 1.0e3, "us")
              else (est, "ns")
            in
            Fmt.pr "  %-45s %10.2f %s/run@." name t unit_
          | _ -> Fmt.pr "  %-45s (no estimate)@." name)
        stats)
    tests;
  emit "estimates_ns" (Json.Obj (List.rev !estimates))

(* ------------------------------------------------------------------ *)
(* SERVICE: request corpus through the daemon's batch engine           *)
(* ------------------------------------------------------------------ *)

(* A deterministic request corpus through Service.Engine — the same
   code path `letdma serve` dispatches to, minus the socket plumbing:
   cold solves, exact repeats (cache hits) and alpha-perturbed repeats
   (warm-started solves), issued as successive batches against one
   engine so the cache carries across batches. Emits hit rates and
   latency percentiles to BENCH_SERVICE.json and a per-request CSV
   snapshot (objective / pivots / cache-verdict columns) next to it. *)
let corpus_csv = "BENCH_CORPUS.csv"

let corpus_section () =
  let module P = Service.Protocol in
  let module R = Resilience.Json in
  section "SERVICE: seeded corpus through the batch engine";
  let seeds = [ 2; 4; 7; 9 ] in
  let solve ~id ~alpha seed =
    Printf.sprintf
      {|{"id":"%s","op":"solve","workload":"small","seed":%d,"alpha":%g,"deadline_s":120,"class":"gold"}|}
      id seed alpha
  in
  (* five waves over the seed set: cold, exact repeat, perturbed, exact
     repeat again, perturbed further — each wave one batch *)
  let wave tag alpha =
    List.map (fun s -> solve ~id:(Printf.sprintf "%s-%d" tag s) ~alpha s) seeds
  in
  let batches =
    [
      wave "cold" 0.2; wave "hit" 0.2; wave "warm" 0.25; wave "hit2" 0.2;
      wave "warm2" 0.3;
    ]
  in
  let engine = Service.Engine.create ~jobs:1 ~retry_on_crash:1 () in
  let lines =
    List.concat_map
      (fun batch ->
        Service.Engine.process engine (List.map P.parse_request batch))
      batches
  in
  Service.Engine.shutdown engine;
  let rows =
    List.map
      (fun line ->
        match R.parse (String.trim line) with
        | Ok (R.O ms) -> ms
        | Ok _ | Error _ -> failwith ("corpus: bad response " ^ line))
      lines
  in
  let str ms k = R.as_string k (R.field "corpus" ms k) in
  let num ms k =
    match R.field_opt ms k with
    | Some (R.N f) -> f
    | _ -> Float.nan
  in
  let oc = open_out corpus_csv in
  output_string oc "id,cache,tier,solver,objective,pivots,nodes,time_ms\n";
  List.iter
    (fun ms ->
      if str ms "status" <> "ok" then
        failwith ("corpus: request failed: " ^ str ms "error");
      Printf.fprintf oc "%s,%s,%s,%s,%.17g,%.0f,%.0f,%.3f\n" (str ms "id")
        (str ms "cache") (str ms "tier") (str ms "solver")
        (num ms "objective") (num ms "pivots") (num ms "nodes")
        (1000.0 *. num ms "time_s"))
    rows;
  close_out oc;
  Fmt.pr "  wrote %s (%d rows)@." corpus_csv (List.length rows);
  let verdict v = List.filter (fun ms -> str ms "cache" = v) rows in
  let hits = verdict "hit" and warms = verdict "warm" in
  let misses = verdict "miss" in
  let lat ms = 1000.0 *. num ms "time_s" in
  let percentile xs p =
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n = 0 then 0.0
    else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))
  in
  let latencies group = List.map lat group in
  let pct group name =
    let xs = latencies group in
    Json.Obj
      [
        ("count", Json.Int (List.length group));
        ("p50_ms", Json.Num (percentile xs 0.50));
        ("p90_ms", Json.Num (percentile xs 0.90));
        ("p99_ms", Json.Num (percentile xs 0.99));
        ( "max_ms",
          Json.Num (List.fold_left Float.max 0.0 xs) );
      ]
    |> fun o ->
    Fmt.pr "  %-6s n=%2d p50=%6.1fms p90=%6.1fms@." name (List.length group)
      (percentile xs 0.50) (percentile xs 0.90);
    o
  in
  let n = List.length rows in
  let pivots group =
    List.fold_left (fun acc ms -> acc +. num ms "pivots") 0.0 group
  in
  emit "corpus"
    (Json.Obj
       [
         ("requests", Json.Int n);
         ("hits", Json.Int (List.length hits));
         ("warm_seeds", Json.Int (List.length warms));
         ("misses", Json.Int (List.length misses));
         ( "repeat_hit_rate",
           (* exact repeats answered from the cache, over all repeats *)
           Json.Num
             (float_of_int (List.length hits)
             /. float_of_int (List.length hits + List.length warms)) );
         ("cold_pivots", Json.Num (pivots misses));
         ("warm_pivots", Json.Num (pivots warms));
         ("latency_all", pct rows "all");
         ("latency_hit", pct hits "hit");
         ("latency_warm", pct warms "warm");
         ("latency_cold", pct misses "cold");
         ("csv", Json.Str corpus_csv);
       ])

let () =
  let log_mutex = Mutex.create () in
  Logs.set_reporter_mutex
    ~lock:(fun () -> Mutex.lock log_mutex)
    ~unlock:(fun () -> Mutex.unlock log_mutex);
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some Logs.Warning);
  let smoke = Array.exists (String.equal "--smoke") Sys.argv in
  (json_prefix :=
     let n = Array.length Sys.argv in
     let rec find i =
       if i >= n then None
       else if String.equal Sys.argv.(i) "--json" && i + 1 < n then
         Some Sys.argv.(i + 1)
       else find (i + 1)
     in
     find 1);
  let app = Workload.Waters2019.make () in
  if Array.exists (String.equal "--pricing") Sys.argv then begin
    run_section "PRICING" pricing_section;
    Fmt.pr "@.bench: pricing section completed@."
  end
  else if Array.exists (String.equal "--warmstart") Sys.argv then begin
    run_section "WARMSTART" warmstart_section;
    Fmt.pr "@.bench: warmstart section completed@."
  end
  else if Array.exists (String.equal "--parallel") Sys.argv then begin
    run_section "PARALLEL" (parallel_section ~smoke:false);
    Fmt.pr "@.bench: parallel section completed@."
  end
  else if Array.exists (String.equal "--corpus") Sys.argv then begin
    run_section "SERVICE" corpus_section;
    Fmt.pr "@.bench: service corpus section completed@."
  end
  else if smoke then begin
    run_section "FIG1" fig1;
    Option.iter fig1_trace !json_prefix;
    run_section "PARALLEL" (parallel_section ~smoke:true);
    run_section "WARMSTART" warmstart_section;
    run_section "RESILIENCE" resilience_section;
    Fmt.pr "@.bench: smoke sections completed@."
  end
  else begin
    run_section "FIG1" fig1;
    Option.iter fig1_trace !json_prefix;
    run_section "FIG2_TABLE1" (fun () -> fig2_and_table1 app);
    run_section "ALPHA" (fun () -> alpha app);
    run_section "ABLATION_C6" ablation_c6;
    run_section "ABLATION_HEUR" ablation_heuristic;
    run_section "ABLATION_P3" (fun () -> ablation_p3 app);
    run_section "EXT_MULTIDMA" (fun () -> extension_multi_dma app);
    run_section "EXT_AUTOMOTIVE" extension_automotive;
    run_section "SCALING" scaling;
    run_section "PRICING" pricing_section;
    run_section "WARMSTART" warmstart_section;
    run_section "PARALLEL" (parallel_section ~smoke:false);
    run_section "ROBUSTNESS" (fun () -> robustness app);
    run_section "RESILIENCE" resilience_section;
    run_section "MICRO" (fun () -> micro app);
    Fmt.pr "@.bench: all sections completed@."
  end
