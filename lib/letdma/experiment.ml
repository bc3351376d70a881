open Rt_model
open Let_sem
open Dma_sim

(* End-to-end experiment pipelines reproducing the paper's evaluation
   (Section VII): configure gamma by sensitivity analysis, solve the
   allocation/scheduling problem, simulate the four approaches, and report
   latencies, ratios and solver statistics. *)

type solver =
  | Milp of {
      objective : Formulation.objective;
      time_limit_s : float;
      node_limit : int;
      presolve : bool; (* MILP root presolve (default on) *)
    }
  | Heuristic

let milp ?(time_limit_s = 60.0) ?(node_limit = 200_000) ?(presolve = true)
    objective =
  Milp { objective; time_limit_s; node_limit; presolve }

let solver_name = function
  | Milp { objective; _ } -> Formulation.objective_name objective
  | Heuristic -> "HEURISTIC"

(* Typed failure of one configuration; [error_to_string] preserves the
   historical one-line messages consumed by the reports and the CLI. *)
type error =
  | No_communications
  | Unschedulable of float option (* None: already at zero jitter *)
  | No_solution of { alpha : float; solver_name : string }
  | Uncertified of Certify.source * Certify.violation list

let error_to_string = function
  | No_communications -> "no inter-core communications"
  | Unschedulable None -> "task set unschedulable at zero jitter"
  | Unschedulable (Some alpha) ->
    Fmt.str "task set unschedulable with alpha=%.2f jitter bound" alpha
  | No_solution { alpha; solver_name } ->
    Fmt.str "solver found no feasible plan (alpha=%.2f, %s)" alpha solver_name
  | Uncertified (source, violations) ->
    Fmt.str "%s solution failed certification (%d violations)"
      (Certify.source_name source)
      (List.length violations)

type config_result = {
  alpha : float;
  solver : solver;
  gamma : Time.t array;
  solution : Solution.t;
  certificate : Certify.t; (* every accepted configuration is certified *)
  solve_stats : Solve.stats option; (* None for the heuristic *)
  num_transfers : int; (* DMA transfers at s0 — Table I's metric *)
  metrics : (Baselines.approach * Sim.metrics) list;
}

let metrics_of r approach = List.assoc approach r.metrics

(* lambda ratio of the proposed approach vs a baseline, per task: the
   quantity on Fig. 2's Y axis. *)
let ratio r approach task =
  let ours = (metrics_of r Baselines.Proposed).Sim.lambda.(task) in
  let other = (metrics_of r approach).Sim.lambda.(task) in
  if Time.compare other Time.zero = 0 then
    if Time.compare ours Time.zero = 0 then 1.0 else infinity
  else float_of_int (Time.to_ns ours) /. float_of_int (Time.to_ns other)

(* Largest improvement over a baseline across tasks (the paper's "up to
   98%" headline = 1 - min ratio). *)
let best_improvement r approach =
  let app_tasks = Array.length r.gamma in
  let best = ref 0.0 in
  for i = 0 to app_tasks - 1 do
    let rho = ratio r approach i in
    if rho < 1.0 then best := Float.max !best (1.0 -. rho)
  done;
  !best

(* The one place a configuration is turned away: Section VII's gamma
   exists only for a schedulable task set, and a set with no inter-core
   communication leaves the DMA nothing to do. *)
let prepare app ~alpha =
  let groups = Groups.compute app in
  if Comm.Set.is_empty (Groups.s0 groups) then Error No_communications
  else
    match Rt_analysis.Sensitivity.gammas app ~alpha with
    | None -> Error (Unschedulable None)
    | Some s when not s.Rt_analysis.Sensitivity.schedulable ->
      Error (Unschedulable (Some alpha))
    | Some s -> Ok (groups, s.Rt_analysis.Sensitivity.gamma)

let run_config ?(solver = Heuristic) app ~alpha =
  Result.bind (prepare app ~alpha) @@ fun (groups, gamma) ->
  let solution, solve_stats, certificate =
    match solver with
    | Heuristic ->
      let sol = Heuristic.solve_unchecked app groups ~gamma in
      let cert =
        Option.map
          (Certify.certify ~source:Certify.Heuristic app groups ~gamma)
          sol
      in
      (sol, None, cert)
    | Milp { objective; time_limit_s; node_limit; presolve } ->
      let r =
        Solve.solve ~time_limit_s ~node_limit ~presolve objective app groups
          ~gamma
      in
      (r.Solve.solution, Some r.Solve.stats, r.Solve.certificate)
  in
  match (solution, certificate) with
  | None, _ | _, None ->
    Error (No_solution { alpha; solver_name = solver_name solver })
  | Some _, Some (Error violations) ->
    let source =
      match solve_stats with
      | None -> Certify.Heuristic
      | Some st -> Certify.milp_source st.Solve.status
    in
    Error (Uncertified (source, violations))
  | Some solution, Some (Ok certificate) ->
    let metrics =
      List.map
        (fun a ->
          (* when tracing, record the Proposed run's simulator
             timeline and bridge it into the event sink *)
          let record_trace = Obs.enabled () && a = Baselines.Proposed in
          let m =
            Baselines.run ~record_trace app groups a ~solution:(Some solution)
          in
          if record_trace then Obs_bridge.emit app m.Sim.trace;
          (a, m))
        Baselines.all_approaches
    in
    Ok
      {
        alpha;
        solver;
        gamma;
        solution;
        certificate;
        solve_stats;
        num_transfers = Solution.num_transfers solution;
        metrics;
      }

(* The paper's Fig. 2 grid: alphas 0.2 and 0.4, the three objectives. *)
let fig2 ?(time_limit_s = 60.0) app =
  let configs =
    List.concat_map
      (fun alpha ->
        List.map
          (fun objective -> (alpha, objective))
          [ Formulation.No_obj; Formulation.Min_transfers;
            Formulation.Min_delay_ratio ])
      [ 0.2; 0.4 ]
  in
  List.map
    (fun (alpha, objective) ->
      ((alpha, objective),
       run_config ~solver:(milp ~time_limit_s objective) app ~alpha))
    configs

(* Table I: solver running time and number of DMA transfers per objective
   and alpha. *)
type table1_row = {
  objective : Formulation.objective;
  t_alpha : float;
  time_s : float option;
  transfers : int option;
  status : string;
}

(* One Table I row from one configuration's result. *)
let table1_row ((alpha, objective), res) =
  match res with
  | Ok r ->
    {
      objective;
      t_alpha = alpha;
      time_s = Option.map (fun s -> s.Solve.time_s) r.solve_stats;
      transfers = Some r.num_transfers;
      status =
        (match r.solve_stats with
         | Some { Solve.status = Milp.Branch_bound.Optimal; _ } -> "optimal"
         | Some { Solve.status = Milp.Branch_bound.Feasible; _ } ->
           "feasible (limit)"
         | Some _ -> "other"
         | None -> "heuristic");
    }
  | Error e ->
    { objective; t_alpha = alpha; time_s = None; transfers = None;
      status = error_to_string e }

(* Table I from Fig. 2's results: the same configurations, in fig2's
   order. *)
let table1 results = List.map table1_row results

(* The alpha sweep of Section VII: NO-OBJ feasibility for alpha in
   {0.1..0.5}. *)
let alpha_sweep ?(time_limit_s = 60.0) app =
  List.map
    (fun alpha ->
      ( alpha,
        run_config ~solver:(milp ~time_limit_s Formulation.No_obj) app ~alpha ))
    [ 0.1; 0.2; 0.3; 0.4; 0.5 ]
