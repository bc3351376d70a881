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
      options : Formulation.options;
      time_limit_s : float;
      node_limit : int;
      jobs : int; (* portfolio width of each solve; 1 = sequential *)
      presolve : bool; (* MILP root presolve (default on) *)
    }
  | Heuristic

let milp ?(options = Formulation.default_options) ?(time_limit_s = 60.0)
    ?(node_limit = 200_000) ?(jobs = 1) ?(presolve = true) objective =
  Milp { objective; options; time_limit_s; node_limit; jobs; presolve }

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

let run_config ?(cpu_model = Sim.Parallel_phases) ?(solver = Heuristic)
    ?deadline_s ?chain app ~alpha =
  let groups = Groups.compute app in
  if Comm.Set.is_empty (Groups.s0 groups) then Error No_communications
  else
    match Rt_analysis.Sensitivity.gammas app ~alpha with
    | None -> Error (Unschedulable None)
    | Some s when not s.Rt_analysis.Sensitivity.schedulable ->
      Error (Unschedulable (Some alpha))
    | Some s ->
      let gamma = s.Rt_analysis.Sensitivity.gamma in
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
        | Milp { objective; options; time_limit_s; node_limit; jobs; presolve }
          ->
          (* warm-start with the heuristic variant matching the objective:
             maximal grouping for OBJ-DMAT, per-task latency-oriented
             transfers otherwise *)
          let granularity =
            match objective with
            | Formulation.Min_transfers -> Heuristic.Grouped
            | Formulation.No_obj | Formulation.Min_delay_ratio ->
              Heuristic.Per_task
          in
          let warm = Heuristic.solve_unchecked ~granularity app groups ~gamma in
          (* Adjacent sweep configurations differ only in a few bounds /
             right-hand sides: hand the previous config's root basis to
             this solve and leave ours behind for the next config on this
             worker domain (see {!Parallel.Sweep.Chain}). Incompatible
             bases are rejected by a fingerprint check inside the kernel
             and simply fall back to the cold solve. *)
          let root_basis = Option.bind chain Parallel.Sweep.Chain.take in
          let basis_out = Option.map (fun _ -> ref None) chain in
          let r =
            Solve.solve ~options ~time_limit_s ?deadline_s ~node_limit ~jobs
              ~presolve ?warm ?root_basis ?basis_out objective app groups
              ~gamma
          in
          (match (chain, basis_out) with
           | Some c, Some { contents = Some b } -> Parallel.Sweep.Chain.put c b
           | _ -> ());
          (r.Solve.solution, Some r.Solve.stats, r.Solve.certificate)
      in
      (match (solution, certificate) with
       | None, _ | _, None ->
         Error (No_solution { alpha; solver_name = solver_name solver })
       | Some _, Some (Error violations) ->
         let source =
           match solver with
           | Heuristic -> Certify.Heuristic
           | Milp _ -> Certify.Milp_incumbent
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
                 Baselines.run ~record_trace ~cpu_model app groups a
                   ~solution:(Some solution)
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
           })

(* Sweep-parallel grid runner shared by fig2 and alpha_sweep: with
   [jobs > 1] the independent configurations are farmed over a domain
   pool; [budget_s] is carved into fair per-config deadlines by
   [Parallel.Sweep] (each config additionally keeps its [time_limit_s]
   cap, so results match the sequential run when the budget is slack). *)
let run_grid ~jobs ~budget_s ~time_limit_s run configs =
  if jobs <= 1 then List.map (fun c -> run ?deadline_s:None c) configs
  else begin
    let global =
      Option.map (fun b -> Milp.Clock.deadline_of ~limit_s:b) budget_s
    in
    Parallel.Sweep.map ~jobs ?deadline:global
      (fun ~deadline c ->
        let d = Float.min deadline (Milp.Clock.deadline_of ~limit_s:time_limit_s) in
        let deadline_s = if Float.is_finite d then Some d else None in
        run ?deadline_s c)
      configs
    |> List.map (fun (o : _ Parallel.Sweep.outcome) ->
           match o.Parallel.Sweep.result with Ok r -> r | Error e -> raise e)
  end

(* The paper's Fig. 2 grid: alphas 0.2 and 0.4, the three objectives. *)
let fig2 ?(alphas = [ 0.2; 0.4 ])
    ?(objectives = [ Formulation.No_obj; Formulation.Min_transfers; Formulation.Min_delay_ratio ])
    ?(time_limit_s = 60.0) ?cpu_model ?(jobs = 1) ?budget_s app =
  let configs =
    List.concat_map
      (fun alpha -> List.map (fun objective -> (alpha, objective)) objectives)
      alphas
  in
  let chain = Parallel.Sweep.Chain.create () in
  run_grid ~jobs ~budget_s ~time_limit_s
    (fun ?deadline_s (alpha, objective) ->
      ((alpha, objective),
       run_config ?cpu_model ?deadline_s ~chain
         ~solver:(milp ~time_limit_s objective) app ~alpha))
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

(* Build Table I rows from already-computed Fig. 2 results (same
   configurations; avoids re-solving). *)
let table1_of_results results =
  List.map
    (fun ((alpha, objective), res) ->
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
          status = error_to_string e })
    results

let table1 ?(alphas = [ 0.2; 0.4 ])
    ?(objectives = [ Formulation.No_obj; Formulation.Min_transfers; Formulation.Min_delay_ratio ])
    ?(time_limit_s = 60.0) ?cpu_model app =
  let chain = Parallel.Sweep.Chain.create () in
  List.concat_map
    (fun objective ->
      List.map
        (fun alpha ->
          match
            run_config ?cpu_model ~chain
              ~solver:(milp ~time_limit_s objective) app ~alpha
          with
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
          status = error_to_string e })
        alphas)
    objectives

(* The alpha sweep of Section VII: feasibility for alpha in {0.1..0.5}. *)
let alpha_sweep ?(alphas = [ 0.1; 0.2; 0.3; 0.4; 0.5 ]) ?(time_limit_s = 60.0)
    ?(objective = Formulation.No_obj) ?cpu_model ?(jobs = 1) ?budget_s app =
  let chain = Parallel.Sweep.Chain.create () in
  run_grid ~jobs ~budget_s ~time_limit_s
    (fun ?deadline_s alpha ->
      (alpha,
       run_config ?cpu_model ?deadline_s ~chain
         ~solver:(milp ~time_limit_s objective) app ~alpha))
    alphas
