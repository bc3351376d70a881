(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section VII) plus the ablations listed in DESIGN.md.

   Sections:
     FIG1          — the protocol-vs-Giotto example schedule (Fig. 1)
     FIG2          — latency ratios for {alpha 0.2, 0.4} x {NO-OBJ,
                     OBJ-DMAT, OBJ-DEL} (Fig. 2 (a)-(f))
     TABLE1        — solver time and #DMA transfers (Table I)
     ALPHA         — the alpha in {0.1..0.5} sensitivity sweep (Sec. VII)
     ABLATION-C6   — lazy vs full Constraint-6 generation (OBJ-DEL)
     ABLATION-HEUR — greedy heuristic vs MILP on random workloads
     ABLATION-P3   — paper's Constraint 10 vs the strict Property-3 bound
     EXT-MULTIDMA  — the protocol on 1/2/4 parallel DMA channels
     EXT-AUTOMOTIVE — signal-heavy workloads (WATERS 2015 statistics)
     SCALING       — MILP size vs WATERS label-table granularity
     ROBUSTNESS    — certifier overhead per solve, fault-injection sweep,
                     and the degradation ladder end to end

   The MILP time limit defaults to 30s per solve (the paper allowed 1h on
   a 40-core Xeon with CPLEX); override with LETDMA_BENCH_TIME_LIMIT.
   Per-layer performance is measured by perfbench/, not here. *)

open Rt_model
open Let_sem

let time_limit =
  match Sys.getenv_opt "LETDMA_BENCH_TIME_LIMIT" with
  | Some s -> (try float_of_string s with _ -> 30.0)
  | None -> 30.0

let section name =
  Fmt.pr "@.%s@.== %s ==@.%s@.@." (String.make 72 '=') name (String.make 72 '=')

(* ------------------------------------------------------------------ *)
(* FIG 1                                                               *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  section "FIG1: protocol schedule vs Giotto ordering (Fig. 1)";
  print_endline (Letdma.Fig1.render ())

(* ------------------------------------------------------------------ *)
(* FIG 2 + TABLE I (same six configurations)                           *)
(* ------------------------------------------------------------------ *)

let fig2_and_table1 app =
  section "FIG2: latency ratios on the WATERS 2019 case study (Fig. 2)";
  Fmt.pr "MILP time limit per solve: %.0fs@.@." time_limit;
  let results = Letdma.Experiment.fig2 ~time_limit_s:time_limit app in
  Fmt.pr "%a@." (fun ppf -> Letdma.Report.fig2 ppf app) results;
  section "TABLE1: solver running times and #DMA transfers (Table I)";
  Fmt.pr "%a@." Letdma.Report.table1 (Letdma.Experiment.table1 results)

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
  section "ABLATION-C6: lazy vs upfront Constraint-6 generation (OBJ-DEL)";
  (* small instances under OBJ-DEL, whose MIP start rarely meets its
     floor: the search must converge for the model sizes and lazy rounds
     to show in honest end-to-end times *)
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
      match Letdma.Experiment.prepare app ~alpha:0.3 with
      | Error e ->
        Fmt.pr "seed %d: %s@." seed (Letdma.Experiment.error_to_string e)
      | Ok (groups, gamma) ->
        (* NO-OBJ would prove its MIP start at 0 nodes: OBJ-DEL
           searches, so the model-size and lazy-round differences
           actually show in the running times *)
        let run name options =
          let r =
            Letdma.Solve.solve ~options ~time_limit_s:time_limit
              Letdma.Formulation.Min_delay_ratio app groups ~gamma
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
  match Letdma.Experiment.prepare app ~alpha:0.2 with
  | Error e -> Fmt.pr "%s@." (Letdma.Experiment.error_to_string e)
  | Ok (groups, gamma) ->
    List.iter
      (fun (name, strict) ->
        let options =
          {
            Letdma.Formulation.default_options with
            Letdma.Formulation.strict_property3 = strict;
          }
        in
        let r =
          Letdma.Solve.solve ~options ~time_limit_s:time_limit
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
  match Letdma.Experiment.prepare app ~alpha:0.2 with
  | Error e -> Fmt.pr "%s@." (Letdma.Experiment.error_to_string e)
  | Ok (groups, gamma) ->
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
      match Letdma.Experiment.prepare app ~alpha:0.3 with
      | Error e ->
        Fmt.pr "  seed %d: %s@." seed (Letdma.Experiment.error_to_string e)
      | Ok (groups, gamma) ->
        let n_comms = Comm.Set.cardinal (Groups.s0 groups) in
        (match Letdma.Heuristic.solve_unchecked app groups ~gamma with
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
      match Letdma.Experiment.prepare app ~alpha:0.2 with
      | Error e ->
        Fmt.pr "  x%d: %s@." labels_per_edge
          (Letdma.Experiment.error_to_string e)
      | Ok (groups, gamma) ->
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
(* ROBUSTNESS: certifier overhead + fault-injection sweep              *)
(* ------------------------------------------------------------------ *)

let robustness app =
  section
    "ROBUSTNESS: certifier overhead, fault-injection sweep, degradation ladder";
  match Letdma.Experiment.prepare app ~alpha:0.2 with
  | Error e -> Fmt.pr "%s@." (Letdma.Experiment.error_to_string e)
  | Ok (groups, gamma) ->
    (* certifier overhead per solve: full independent re-verification
       (MILP residuals + layouts + Properties 1-3 + deadlines) relative
       to the MILP solve it vouches for; the budget is <5% *)
    let r =
      Letdma.Solve.solve ~time_limit_s:time_limit Letdma.Formulation.No_obj
        app groups ~gamma
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
    (match Letdma.Heuristic.solve_unchecked app groups ~gamma with
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


let () =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some Logs.Warning);
  let app = Workload.Waters2019.make () in
  fig1 ();
  fig2_and_table1 app;
  alpha app;
  ablation_c6 ();
  ablation_heuristic ();
  ablation_p3 app;
  extension_multi_dma app;
  extension_automotive ();
  scaling ();
  robustness app;
  Fmt.pr "@.bench: all sections completed@."
