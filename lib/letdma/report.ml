open Rt_model
open Dma_sim

(* Plain-text rendering of the reproduced tables and figures. *)

let hr ppf width = Fmt.pf ppf "%s@," (String.make width '-')

(* Fig. 2 (one subplot): per task, the measured lambda of the proposed
   approach and its ratio against each baseline. *)
let fig2_subplot ppf app (r : Experiment.config_result) =
  Fmt.pf ppf "@[<v>";
  Fmt.pf ppf "alpha=%.1f  %s  (%d DMA transfers at s0%a)@," r.Experiment.alpha
    (Experiment.solver_name r.Experiment.solver)
    r.Experiment.num_transfers
    Fmt.(
      option (fun ppf s ->
          pf ppf ", solver: %.2fs %s" s.Solve.time_s
            (match s.Solve.status with
             | Milp.Branch_bound.Optimal -> "optimal"
             | Milp.Branch_bound.Feasible -> "feasible@limit"
             | _ -> "?")))
    r.Experiment.solve_stats;
  hr ppf 76;
  Fmt.pf ppf "%-6s %12s %12s %10s %10s %10s@," "task" "lambda(us)" "gamma(us)"
    "vs CPU" "vs DMA-A" "vs DMA-B";
  hr ppf 76;
  List.iter
    (fun (t : Task.t) ->
      let i = t.Task.id in
      let ours =
        (Experiment.metrics_of r Baselines.Proposed).Sim.lambda.(i)
      in
      Fmt.pf ppf "%-6s %12.1f %12.1f %10.3f %10.3f %10.3f@," t.Task.name
        (Time.to_us_float ours)
        (Time.to_us_float r.Experiment.gamma.(i))
        (Experiment.ratio r Baselines.Giotto_cpu i)
        (Experiment.ratio r Baselines.Giotto_dma_a i)
        (Experiment.ratio r Baselines.Giotto_dma_b i))
    (App.tasks app);
  hr ppf 76;
  Fmt.pf ppf "max improvement: %.1f%% vs CPU, %.1f%% vs DMA-A, %.1f%% vs DMA-B@,"
    (100.0 *. Experiment.best_improvement r Baselines.Giotto_cpu)
    (100.0 *. Experiment.best_improvement r Baselines.Giotto_dma_a)
    (100.0 *. Experiment.best_improvement r Baselines.Giotto_dma_b);
  Fmt.pf ppf "@]"

let fig2 ppf app results =
  Fmt.pf ppf "@[<v>== FIG 2: data-acquisition latency ratios (proposed / baseline) ==@,@,";
  List.iter
    (fun ((alpha, objective), res) ->
      match res with
      | Ok r -> Fmt.pf ppf "%a@," (fun ppf -> fig2_subplot ppf app) r
      | Error e ->
        Fmt.pf ppf "alpha=%.1f %s: FAILED (%s)@,@," alpha
          (Formulation.objective_name objective)
          (Experiment.error_to_string e))
    results;
  Fmt.pf ppf "@]"

let table1 ppf rows =
  Fmt.pf ppf "@[<v>== TABLE I: solver running times and DMA transfer counts ==@,";
  hr ppf 72;
  Fmt.pf ppf "%-10s %8s %14s %12s %-18s@," "objective" "alpha" "time" "#transfers"
    "status";
  hr ppf 72;
  List.iter
    (fun (row : Experiment.table1_row) ->
      Fmt.pf ppf "%-10s %8.1f %14s %12s %-18s@,"
        (Formulation.objective_name row.Experiment.objective)
        row.Experiment.t_alpha
        (match row.Experiment.time_s with
         | Some t -> Fmt.str "%.2fs" t
         | None -> "-")
        (match row.Experiment.transfers with
         | Some n -> string_of_int n
         | None -> "-")
        row.Experiment.status)
    rows;
  hr ppf 72;
  Fmt.pf ppf "@]"

(* CSV rendering of the Fig. 2 data (one row per task and configuration),
   for external plotting. *)
let fig2_csv ppf app results =
  Fmt.pf ppf
    "alpha,objective,task,period_us,gamma_us,lambda_proposed_us,lambda_cpu_us,lambda_dma_a_us,lambda_dma_b_us,ratio_cpu,ratio_dma_a,ratio_dma_b@.";
  List.iter
    (fun ((alpha, objective), res) ->
      match res with
      | Error e ->
        (* a failed cell must stay distinguishable from one never run:
           comment line, so CSV consumers skip it without guessing *)
        Fmt.pf ppf "# FAILED alpha=%.1f objective=%s reason=%s@." alpha
          (Formulation.objective_name objective)
          (Experiment.error_to_string e)
      | Ok (r : Experiment.config_result) ->
        List.iter
          (fun (t : Task.t) ->
            let i = t.Task.id in
            let lam a =
              Time.to_us_float (Experiment.metrics_of r a).Sim.lambda.(i)
            in
            Fmt.pf ppf "%.1f,%s,%s,%.1f,%.1f,%.3f,%.3f,%.3f,%.3f,%.5f,%.5f,%.5f@."
              alpha
              (Formulation.objective_name objective)
              t.Task.name
              (Time.to_us_float t.Task.period)
              (Time.to_us_float r.Experiment.gamma.(i))
              (lam Baselines.Proposed) (lam Baselines.Giotto_cpu)
              (lam Baselines.Giotto_dma_a) (lam Baselines.Giotto_dma_b)
              (Experiment.ratio r Baselines.Giotto_cpu i)
              (Experiment.ratio r Baselines.Giotto_dma_a i)
              (Experiment.ratio r Baselines.Giotto_dma_b i))
          (App.tasks app))
    results

let alpha_sweep ppf results =
  Fmt.pf ppf "@[<v>== ALPHA SWEEP: feasibility of the sensitivity-derived deadlines ==@,";
  List.iter
    (fun (alpha, res) ->
      match res with
      | Ok (r : Experiment.config_result) ->
        (* worst lambda_i / gamma_i across tasks: <= 1 means every
           data-acquisition deadline holds in simulation *)
        let m = Experiment.metrics_of r Baselines.Proposed in
        let worst = ref 0.0 in
        Array.iteri
          (fun i g ->
            if Time.compare g Time.zero > 0 then
              worst :=
                Float.max !worst
                  (float_of_int (Time.to_ns m.Sim.lambda.(i))
                  /. float_of_int (Time.to_ns g)))
          r.Experiment.gamma;
        Fmt.pf ppf "alpha=%.1f: feasible, %d transfers, max lambda/gamma %.4f@,"
          alpha r.Experiment.num_transfers !worst
      | Error e ->
        Fmt.pf ppf "alpha=%.1f: infeasible (%s)@," alpha
          (Experiment.error_to_string e))
    results;
  Fmt.pf ppf "@]"
