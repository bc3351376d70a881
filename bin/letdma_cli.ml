(* Command-line interface: reproduce the paper's experiments and inspect
   the pipeline on the WATERS 2019 case study or random workloads.

   Failure discipline: every command returns a distinct exit code with a
   one-line structured error on stderr instead of a raw exception —
     0  success
     1  unexpected internal error
     3  invalid application model
     4  nothing to solve / unschedulable (no communications, or no gamma
        exists at the requested alpha)
     5  solving failed (no feasible plan, certification rejected the
        solution, or the degradation ladder was exhausted)
     7  solve interrupted with a resumable checkpoint on disk (rerun
        with the `resume` subcommand to continue the search)
     8  service failed to start (e.g. the --socket path cannot be
        bound); once serving, the daemon answers malformed requests
        with structured error responses and still exits 0
   Invalid flag values (e.g. --labels-per-edge 0) are rejected by the
   argument parser itself with Cmdliner's usage error code (124); serve's
   --jobs is the exception — it is validated in the command body (through
   Parallel.Pool.validate_jobs) so an invalid count gets the structured
   one-line error and exit code 1. *)

open Cmdliner
open Rt_model
open Let_sem

let exit_internal = 1
let exit_invalid_model = 3
let exit_unschedulable = 4
let exit_no_solution = 5
let exit_interrupted = 7
let exit_service_startup = 8

let err fmt = Fmt.kstr (fun m -> Fmt.epr "letdma: error: %s@." m) fmt

(* Run [f], mapping any stray exception to a one-line error + exit 1. *)
let guard f =
  try f () with
  | Failure m | Invalid_argument m | App.Invalid m ->
    err "%s" m;
    exit_internal
  | Sys_error m ->
    err "%s" m;
    exit_internal

let exit_of_experiment_error = function
  | Letdma.Experiment.No_communications | Letdma.Experiment.Unschedulable _ ->
    exit_unschedulable
  | Letdma.Experiment.No_solution _ | Letdma.Experiment.Uncertified _ ->
    exit_no_solution

let report_experiment_error e =
  err "%s" (Letdma.Experiment.error_to_string e);
  exit_of_experiment_error e

(* [k groups gamma] when [Experiment.prepare] accepts the configuration;
   otherwise its rejection, reported with its exit code. *)
let with_prepared app ~alpha k =
  match Letdma.Experiment.prepare app ~alpha with
  | Error e -> report_experiment_error e
  | Ok (groups, gamma) -> k groups gamma

let setup_logs verbose =
  (* the format reporter is not domain-safe; the service's pool workers
     log concurrently *)
  let log_mutex = Mutex.create () in
  Logs.set_reporter_mutex
    ~lock:(fun () -> Mutex.lock log_mutex)
    ~unlock:(fun () -> Mutex.unlock log_mutex);
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some (if verbose then Logs.Info else Logs.Warning))

let verbose_t =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log solver progress.")

(* validated argument converters: out-of-range values are rejected at
   parse time, before any work starts *)
let positive_int what =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | Some n -> Error (`Msg (Fmt.str "%s must be positive, got %d" what n))
    | None -> Error (`Msg (Fmt.str "%s must be an integer, got %S" what s))
  in
  Arg.conv (parse, Fmt.int)

let positive_float what =
  let parse s =
    match float_of_string_opt s with
    | Some x when x > 0.0 && Float.is_finite x -> Ok x
    | Some x -> Error (`Msg (Fmt.str "%s must be positive, got %g" what x))
    | None -> Error (`Msg (Fmt.str "%s must be a number, got %S" what s))
  in
  Arg.conv (parse, Fmt.float)

let nonneg_float what =
  let parse s =
    match float_of_string_opt s with
    | Some x when x >= 0.0 && Float.is_finite x -> Ok x
    | Some x -> Error (`Msg (Fmt.str "%s must be >= 0, got %g" what x))
    | None -> Error (`Msg (Fmt.str "%s must be a number, got %S" what s))
  in
  Arg.conv (parse, Fmt.float)

let time_limit_t =
  Arg.(
    value
    & opt (positive_float "time limit") 60.0
    & info [ "time-limit" ] ~docv:"SECONDS"
        ~doc:"Wall-clock limit for each MILP solve (the paper used 1 hour).")

let labels_per_edge_t =
  Arg.(
    value
    & opt (positive_int "labels per edge") 1
    & info [ "labels-per-edge" ] ~docv:"N"
        ~doc:"Split each WATERS data flow into N labels (scales the MILP).")

let seed_t =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

(* serve's worker count. Deliberately a plain int: the value is validated
   in the command body (see [check_jobs]) so that an invalid count reports
   through the structured error path with exit code 1, like any other
   runtime failure, rather than Cmdliner's usage error. *)
let jobs_t =
  Arg.(
    value
    & opt int (Domain.recommended_domain_count ())
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains of the request pool (default: what the runtime \
           recommends for this machine). Each request is one sequential \
           solve; independent requests run in parallel.")

let check_jobs jobs k =
  match Parallel.Pool.validate_jobs jobs with
  | Ok _ -> k ()
  | Error m ->
    err "%s" m;
    exit_internal

(* --- observability ---------------------------------------------------- *)

let trace_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a structured JSONL event trace of the run (solver nodes and \
           incumbents, pipeline rungs, sweep carving, simulator timeline) to \
           $(docv). See README: Observability for the event schema.")

let metrics_t =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Print an aggregated event summary (count and total span time per \
           event) after the run. Implies event collection even without \
           $(b,--trace).")

(* Run a command body under the event sink when --trace/--metrics ask for
   it; the sink is drained and closed even if the body fails. *)
let with_obs ~trace ~metrics f =
  if trace = None && not metrics then f ()
  else begin
    let code = Obs.with_trace ?file:trace f in
    (match trace with
     | Some file -> Fmt.pr "wrote %s (%d events)@." file (Obs.lines_written ())
     | None -> ());
    if metrics then Fmt.pr "%a@." Obs.pp_metrics ();
    code
  end

let waters ~labels_per_edge = Workload.Waters2019.make ~labels_per_edge ()

(* --- info ------------------------------------------------------------ *)

let info_cmd =
  let run verbose labels_per_edge =
    guard @@ fun () ->
    setup_logs verbose;
    let app = waters ~labels_per_edge in
    let groups = Groups.compute app in
    Fmt.pr "%a@.@.%a@.@.Response-time analysis:@.%a@." App.pp app Groups.pp
      groups
      (Rt_analysis.Rta.pp_analysis app)
      ();
    List.iter
      (fun (alpha, s) ->
        match s with
        | Some s -> Fmt.pr "@.%a@." (Rt_analysis.Sensitivity.pp app) s
        | None -> Fmt.pr "@.alpha=%.1f: unschedulable@." alpha)
      (Rt_analysis.Sensitivity.sweep app);
    0
  in
  Cmd.v
    (Cmd.info "info" ~doc:"Print the WATERS 2019 case study and its analysis.")
    Term.(const run $ verbose_t $ labels_per_edge_t)

(* --- fig1 ------------------------------------------------------------ *)

let fig1_cmd =
  let vcd_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "vcd" ] ~docv:"FILE"
          ~doc:
            "Additionally dump the proposed protocol's schedule as a VCD \
             waveform (viewable in GTKWave).")
  in
  let run verbose vcd trace metrics =
    guard @@ fun () ->
    setup_logs verbose;
    with_obs ~trace ~metrics @@ fun () ->
    Fmt.pr "%s@." (Letdma.Fig1.render ());
    if vcd = None && not (Obs.enabled ()) then 0
    else
      let app = Letdma.Fig1.app () in
      let groups = Groups.compute app in
      let gamma = Letdma.Fig1.gamma app in
      match Letdma.Heuristic.solve app groups ~gamma with
      | Error e ->
        err "fig1: %s" e;
        exit_no_solution
      | Ok solution ->
        let m =
          Letdma.Baselines.run ~record_trace:true app groups
            Letdma.Baselines.Proposed ~solution:(Some solution)
        in
        Dma_sim.Obs_bridge.emit app m.Dma_sim.Sim.trace;
        (match vcd with
         | None -> ()
         | Some file ->
           let oc = open_out file in
           output_string oc (Dma_sim.Vcd.to_vcd app m.Dma_sim.Sim.trace);
           close_out oc;
           Fmt.pr "wrote %s@." file);
        0
  in
  Cmd.v
    (Cmd.info "fig1"
       ~doc:
         "Reproduce the shape of the paper's Fig. 1: the protocol's schedule \
          vs the Giotto ordering on the 6-task example.")
    Term.(const run $ verbose_t $ vcd_t $ trace_t $ metrics_t)

(* --- fig2 ------------------------------------------------------------ *)

let fig2_cmd =
  let csv_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE"
          ~doc:"Additionally write the per-task data as CSV for plotting.")
  in
  let run verbose time_limit labels_per_edge csv trace metrics =
    guard @@ fun () ->
    setup_logs verbose;
    with_obs ~trace ~metrics @@ fun () ->
    let app = waters ~labels_per_edge in
    let results = Letdma.Experiment.fig2 ~time_limit_s:time_limit app in
    Fmt.pr "%a@." (fun ppf -> Letdma.Report.fig2 ppf app) results;
    (match csv with
     | None -> ()
     | Some file ->
       let oc = open_out file in
       let ppf = Format.formatter_of_out_channel oc in
       Letdma.Report.fig2_csv ppf app results;
       Format.pp_print_flush ppf ();
       close_out oc;
       Fmt.pr "wrote %s@." file);
    if List.exists (fun (_, r) -> Result.is_ok r) results then 0
    else begin
      err "every configuration failed";
      exit_no_solution
    end
  in
  Cmd.v
    (Cmd.info "fig2"
       ~doc:
         "Reproduce Fig. 2: latency ratios of the proposed approach vs the \
          three Giotto baselines for alpha in {0.2, 0.4} and the three \
          objectives.")
    Term.(
      const run $ verbose_t $ time_limit_t $ labels_per_edge_t $ csv_t
      $ trace_t $ metrics_t)

(* --- table1 ---------------------------------------------------------- *)

let table1_cmd =
  let run verbose time_limit labels_per_edge =
    guard @@ fun () ->
    setup_logs verbose;
    let app = waters ~labels_per_edge in
    let results = Letdma.Experiment.fig2 ~time_limit_s:time_limit app in
    Fmt.pr "%a@." Letdma.Report.table1 (Letdma.Experiment.table1 results);
    0
  in
  Cmd.v
    (Cmd.info "table1"
       ~doc:"Reproduce Table I: solver running times and DMA transfer counts.")
    Term.(const run $ verbose_t $ time_limit_t $ labels_per_edge_t)

(* --- alpha sweep ------------------------------------------------------ *)

let alpha_cmd =
  let run verbose time_limit labels_per_edge =
    guard @@ fun () ->
    setup_logs verbose;
    let app = waters ~labels_per_edge in
    let results = Letdma.Experiment.alpha_sweep ~time_limit_s:time_limit app in
    Fmt.pr "%a@." Letdma.Report.alpha_sweep results;
    0
  in
  Cmd.v
    (Cmd.info "alpha-sweep"
       ~doc:
         "Reproduce the alpha sensitivity sweep of Section VII (alpha in \
          {0.1..0.5}).")
    Term.(const run $ verbose_t $ time_limit_t $ labels_per_edge_t)

(* --- solve ------------------------------------------------------------ *)

let objective_t =
  Arg.(
    value
    & opt (enum Letdma.Formulation.objective_flags) Letdma.Formulation.No_obj
    & info [ "objective" ] ~docv:"OBJ"
        ~doc:"Objective: $(b,no-obj), $(b,dmat) (Eq. 4) or $(b,del) (Eq. 5).")

let alpha_t =
  Arg.(
    value
    & opt (positive_float "alpha") 0.2
    & info [ "alpha" ] ~docv:"ALPHA"
        ~doc:"Sensitivity factor for data-acquisition deadlines.")

let heuristic_t =
  Arg.(
    value & flag
    & info [ "heuristic" ] ~doc:"Use the greedy heuristic instead of the MILP.")

let no_presolve_t =
  Arg.(
    value & flag
    & info [ "no-presolve" ]
        ~doc:
          "Disable the MILP root presolve (bound tightening + redundant-row \
           elimination), which is on by default.")

let stats_t =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print solver statistics (branch-and-bound nodes, simplex pivots, \
           pricing counters, presolve reductions, LP time).")

(* --- resilience flags (solve / resume / pipeline) --------------------- *)

let checkpoint_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:
          "Write periodic solver checkpoints to $(docv) (versioned JSON, \
           atomically replaced). An interrupted solve exits with code 7 and \
           leaves the file behind; continue it with the $(b,resume) \
           subcommand. Removed automatically when the solve finishes \
           conclusively.")

let checkpoint_every_t =
  Arg.(
    value
    & opt (positive_int "checkpoint cadence") 64
    & info [ "checkpoint-every" ] ~docv:"NODES"
        ~doc:"Checkpoint cadence in branch-and-bound nodes (default 64).")

let interrupt_after_t =
  Arg.(
    value
    & opt (some (positive_int "interrupt threshold")) None
    & info [ "interrupt-after" ] ~docv:"NODES"
        ~doc:
          "Stop the solve after exploring $(docv) nodes (testing hook for the \
           checkpoint/resume chaos gate; combine with $(b,--checkpoint)).")

(* Alternative workloads for solve/resume: the WATERS case study is too
   LP-heavy to explore many nodes sequentially, so the chaos gate
   interrupts a seeded small random instance instead. The resume run must
   rebuild the same workload (same flags); any mismatch is caught by the
   checkpoint's model fingerprint. *)
let workload_t =
  Arg.(
    value
    & opt (enum Workload.kinds) Workload.Waters
    & info [ "workload" ] ~docv:"KIND"
        ~doc:
          "Workload to solve: $(b,waters) (default, the case study), \
           $(b,random) (seeded generator, default config) or \
           $(b,small) (seeded generator, small instances that solve to \
           optimality in seconds — used by the CI chaos gate).")

(* Durable solve path: direct [Solve.solve] on the chosen workload so the
   checkpoint plumbing is reachable from the command line. Output is
   line-oriented and greppable — the CI chaos gate compares `objective:`
   and `nodes:` across interrupted-and-resumed vs uninterrupted runs. *)
let durable_solve ~time_limit ~objective ~alpha ~presolve ~stats ~checkpoint
    ~checkpoint_every ~interrupt_after ~resume app =
  with_prepared app ~alpha @@ fun groups gamma ->
  let r =
    Letdma.Solve.solve ~time_limit_s:time_limit ~presolve
      ?checkpoint_file:checkpoint ~checkpoint_every ?resume
      ?interrupt_after_nodes:interrupt_after objective app groups ~gamma
  in
  let st = r.Letdma.Solve.stats in
  let status = Milp.Branch_bound.status_name st.Letdma.Solve.status in
  Fmt.pr "status: %s@." status;
  (match r.Letdma.Solve.x with
   | Some x ->
     let _, e =
       Milp.Problem.objective r.Letdma.Solve.instance.Letdma.Formulation.problem
     in
     Fmt.pr "objective: %.17g@." (Milp.Linexpr.eval e x)
   | None -> ());
  Fmt.pr "nodes: %d@." st.Letdma.Solve.nodes;
  Fmt.pr "rounds: %d@." st.Letdma.Solve.rounds;
  if stats then Fmt.pr "solver stats: @[%a@]@." Letdma.Solve.pp_stats st;
  let interrupted =
    match (checkpoint, st.Letdma.Solve.status) with
    | ( Some file,
        (Milp.Branch_bound.Feasible | Milp.Branch_bound.Unknown) ) ->
      Sys.file_exists file
    | _ -> false
  in
  if interrupted then begin
    Fmt.pr "checkpoint: %s@." (Option.get checkpoint);
    exit_interrupted
  end
  else
    (match (r.Letdma.Solve.solution, r.Letdma.Solve.certificate) with
     | Some _, Some (Ok c) ->
       Fmt.pr "certified: %d checks@." c.Letdma.Certify.checks;
       0
     | Some _, (Some (Error _) | None) ->
       err "solution failed certification";
       exit_no_solution
     | None, _ ->
       err "no solution (%s)" status;
       exit_no_solution)

let solve_cmd =
  let run verbose time_limit labels_per_edge objective alpha heuristic
      no_presolve stats workload seed checkpoint checkpoint_every
      interrupt_after trace metrics =
    guard @@ fun () ->
    setup_logs verbose;
    with_obs ~trace ~metrics @@ fun () ->
    let durable = checkpoint <> None || interrupt_after <> None in
    let app = Workload.make ~labels_per_edge ~seed workload in
    if durable && heuristic then begin
      err "--heuristic cannot be combined with --checkpoint or \
           --interrupt-after (they select the MILP-only durable path)";
      exit_internal
    end
    else if durable then
      durable_solve ~time_limit ~objective ~alpha ~presolve:(not no_presolve)
        ~stats ~checkpoint ~checkpoint_every ~interrupt_after ~resume:None app
    else
      let solver =
        if heuristic then Letdma.Experiment.Heuristic
        else
          Letdma.Experiment.milp ~time_limit_s:time_limit
            ~presolve:(not no_presolve) objective
      in
      match Letdma.Experiment.run_config ~solver app ~alpha with
      | Error e -> report_experiment_error e
      | Ok r ->
        Fmt.pr "%a@.@.%a@."
          (Letdma.Solution.pp app)
          r.Letdma.Experiment.solution
          (fun ppf -> Letdma.Report.fig2_subplot ppf app)
          r;
        if stats then
          (match r.Letdma.Experiment.solve_stats with
           | Some s -> Fmt.pr "@.solver stats: @[%a@]@." Letdma.Solve.pp_stats s
           | None -> Fmt.pr "@.solver stats: none (heuristic solve)@.");
        0
  in
  Cmd.v
    (Cmd.info "solve"
       ~doc:
         "Solve one configuration and report the resulting plan/latencies. \
          With $(b,--checkpoint) or $(b,--interrupt-after) the solve runs \
          the durable sequential MILP path (which refuses $(b,--heuristic)) \
          and reports greppable status/objective/nodes lines.")
    Term.(
      const run $ verbose_t $ time_limit_t $ labels_per_edge_t $ objective_t
      $ alpha_t $ heuristic_t $ no_presolve_t $ stats_t $ workload_t
      $ seed_t $ checkpoint_t $ checkpoint_every_t $ interrupt_after_t
      $ trace_t $ metrics_t)

(* --- resume ------------------------------------------------------------ *)

let resume_cmd =
  let checkpoint_req_t =
    Arg.(
      required
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:"Checkpoint file written by an interrupted $(b,solve).")
  in
  let run verbose time_limit labels_per_edge objective alpha no_presolve
      workload seed checkpoint checkpoint_every interrupt_after trace metrics =
    guard @@ fun () ->
    setup_logs verbose;
    with_obs ~trace ~metrics @@ fun () ->
    match Resilience.Checkpoint.load checkpoint with
    | Error m ->
      err "checkpoint %s: %s" checkpoint m;
      exit_internal
    | Ok ck ->
      let app = Workload.make ~labels_per_edge ~seed workload in
      durable_solve ~time_limit ~objective ~alpha ~presolve:(not no_presolve)
        ~stats:false ~checkpoint:(Some checkpoint) ~checkpoint_every
        ~interrupt_after ~resume:(Some ck) app
  in
  Cmd.v
    (Cmd.info "resume"
       ~doc:
         "Resume an interrupted solve from its checkpoint file. The workload \
          flags (--workload, --seed, --labels-per-edge, --objective, \
          --alpha) must match the original solve; a mismatch is rejected by \
          the checkpoint's model fingerprint. Keeps checkpointing to the \
          same file, so a resumed run can itself be interrupted and resumed \
          again.")
    Term.(
      const run $ verbose_t $ time_limit_t $ labels_per_edge_t $ objective_t
      $ alpha_t $ no_presolve_t $ workload_t $ seed_t $ checkpoint_req_t
      $ checkpoint_every_t $ interrupt_after_t $ trace_t $ metrics_t)

(* --- pipeline --------------------------------------------------------- *)

let pipeline_cmd =
  let budget_t =
    Arg.(
      value
      & opt (positive_float "budget") 60.0
      & info [ "budget" ] ~docv:"SECONDS"
          ~doc:
            "Total wall-clock budget shared by every rung of the ladder \
             (MILP rounds, fallbacks).")
  in
  let run verbose labels_per_edge objective alpha budget trace metrics =
    guard @@ fun () ->
    setup_logs verbose;
    with_obs ~trace ~metrics @@ fun () ->
    let app = waters ~labels_per_edge in
    match Letdma.Pipeline.run ~objective ~budget_s:budget ~alpha app with
    | Ok o ->
      Fmt.pr "%a@." (Letdma.Pipeline.pp_outcome app) o;
      0
    | Error f ->
      err "%s" (Letdma.Pipeline.failure_to_string f);
      (match f with
       | Letdma.Pipeline.Invalid_model _ -> exit_invalid_model
       | Letdma.Pipeline.Rejected e -> exit_of_experiment_error e
       | Letdma.Pipeline.Exhausted _ -> exit_no_solution)
  in
  Cmd.v
    (Cmd.info "pipeline"
       ~doc:
         "Run the hardened solve pipeline (validation, certification, \
          degradation ladder) and report which rung produced the accepted \
          solution.")
    Term.(
      const run $ verbose_t $ labels_per_edge_t $ objective_t $ alpha_t
      $ budget_t $ trace_t $ metrics_t)

(* --- fault injection -------------------------------------------------- *)

let faults_cmd =
  let intensities_t =
    Arg.(
      value
      & opt (list (nonneg_float "intensity")) [ 0.0; 0.1; 0.5; 1.0; 2.0; 5.0 ]
      & info [ "intensities" ] ~docv:"X,Y,..."
          ~doc:"Fault intensities to sweep (see Faults.at_intensity).")
  in
  let run verbose labels_per_edge alpha seed intensities =
    guard @@ fun () ->
    setup_logs verbose;
    let app = waters ~labels_per_edge in
    with_prepared app ~alpha @@ fun groups gamma ->
    match Letdma.Heuristic.solve app groups ~gamma with
    | Error e ->
      err "heuristic: %s" e;
      exit_no_solution
    | Ok solution ->
      let schedule = Letdma.Solution.schedule app groups solution in
      let reports =
        Dma_sim.Robustness.sweep ~seed ~intensities app groups schedule
      in
      Fmt.pr "== FAULT INJECTION (seed %d) ==@." seed;
      List.iter
        (fun r -> Fmt.pr "%a@." Dma_sim.Robustness.pp_report r)
        reports;
      (match
         List.find_opt
           (fun r -> not (Dma_sim.Robustness.survives r))
           reports
       with
       | None -> Fmt.pr "all properties survive every swept intensity@."
       | Some r ->
         Fmt.pr "properties first break at intensity %g@." r.intensity);
      0
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Stress a certified schedule under the seeded DMA fault model and \
          report which LET properties survive at each intensity.")
    Term.(
      const run $ verbose_t $ labels_per_edge_t $ alpha_t $ seed_t
      $ intensities_t)

(* --- trace-check ------------------------------------------------------- *)

let trace_check_cmd =
  let files_t =
    Arg.(
      non_empty
      & pos_all file []
      & info [] ~docv:"FILE"
          ~doc:
            "Files to validate: $(b,.jsonl) files are checked as event \
             traces (every line a schema-conforming JSON object, timestamps \
             monotone per domain), anything else as a single JSON document. \
             Both checks reject NaN/Infinity tokens, which are not JSON.")
  in
  let run verbose files =
    guard @@ fun () ->
    setup_logs verbose;
    let results =
      List.map
        (fun f ->
          if Filename.check_suffix f ".jsonl" then (
            match Obs.Check.trace_file f with
            | Ok n ->
              Fmt.pr "%s: OK (%d events)@." f n;
              true
            | Error m ->
              err "%s: %s" f m;
              false)
          else
            match Obs.Check.json_file f with
            | Ok () ->
              Fmt.pr "%s: OK@." f;
              true
            | Error m ->
              err "%s: %s" f m;
              false)
        files
    in
    if List.for_all Fun.id results then 0 else exit_internal
  in
  Cmd.v
    (Cmd.info "trace-check"
       ~doc:
         "Validate JSONL event traces and JSON documents (used by the CI \
          gate to reject malformed or NaN-carrying output).")
    Term.(const run $ verbose_t $ files_t)

(* --- serve ------------------------------------------------------------- *)

let serve_cmd =
  let socket_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Additionally listen on a Unix-domain socket at $(docv) (created \
             on startup, removed on shutdown). Requests on stdin are always \
             served; a bind failure exits with code 8 before any request is \
             read.")
  in
  let cache_t =
    Arg.(
      value
      & opt (positive_int "cache capacity") 64
      & info [ "cache" ] ~docv:"N"
          ~doc:
            "Capacity of the fingerprint-keyed warm cache (LRU entries, \
             each one solved model with its plan).")
  in
  let max_batch_t =
    Arg.(
      value
      & opt (positive_int "max batch") 64
      & info [ "max-batch" ] ~docv:"N"
          ~doc:
            "Largest request batch carved through one shared deadline; \
             pipelined input beyond $(docv) starts the next batch.")
  in
  let run verbose socket cache max_batch jobs trace metrics =
    guard @@ fun () ->
    setup_logs verbose;
    check_jobs jobs @@ fun () ->
    with_obs ~trace ~metrics @@ fun () ->
    let engine = Service.Engine.create ~jobs ~cache_capacity:cache () in
    let r = Service.Daemon.run ?socket ~max_batch engine in
    Service.Engine.shutdown engine;
    match r with
    | Ok code -> code
    | Error m ->
      err "%s" m;
      exit_service_startup
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the solver as a persistent service: newline-delimited JSON \
          requests on stdin (and optionally a Unix-domain socket), one JSON \
          response per line. Batches compatible requests under a shared \
          fair deadline, caches solved models by fingerprint (exact repeats \
          replay instantly, a perturbed repeat starts from its sibling's \
          plan), and sheds \
          over-deadline work down the degradation ladder by QoS class. See \
          README: Running as a service for the protocol.")
    Term.(
      const run $ verbose_t $ socket_t $ cache_t $ max_batch_t $ jobs_t
      $ trace_t $ metrics_t)

(* --- random workload --------------------------------------------------- *)

let random_cmd =
  let run verbose time_limit seed =
    guard @@ fun () ->
    setup_logs verbose;
    let app = Workload.Generator.random ~seed () in
    Fmt.pr "%a@." App.pp app;
    match
      Letdma.Experiment.run_config
        ~solver:
          (Letdma.Experiment.milp ~time_limit_s:time_limit
             Letdma.Formulation.No_obj)
        app ~alpha:0.3
    with
    | Error e -> report_experiment_error e
    | Ok r ->
      Fmt.pr "%a@." (fun ppf -> Letdma.Report.fig2_subplot ppf app) r;
      0
  in
  Cmd.v
    (Cmd.info "random"
       ~doc:"Generate a random workload and run the pipeline on it.")
    Term.(const run $ verbose_t $ time_limit_t $ seed_t)

let main =
  Cmd.group
    (Cmd.info "letdma" ~version:"1.0.0"
       ~doc:
         "Optimal memory allocation and scheduling for DMA data transfers \
          under the LET paradigm (DAC 2021 reproduction).")
    [
      info_cmd;
      fig1_cmd;
      fig2_cmd;
      table1_cmd;
      alpha_cmd;
      solve_cmd;
      resume_cmd;
      pipeline_cmd;
      serve_cmd;
      faults_cmd;
      random_cmd;
      trace_check_cmd;
    ]

let () = exit (Cmd.eval' main)
