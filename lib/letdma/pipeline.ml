open Rt_model
open Let_sem
open Mem_layout

(* The hardened entry point: validate, then walk MILP -> perturbed MILP ->
   heuristic -> baseline under one absolute wall-clock deadline, accepting
   the first rung whose output the independent certifier vouches for. The
   pipeline re-certifies every rung itself — it never trusts a
   certificate claimed by the solver hook. *)

let src = Logs.Src.create "letdma.pipeline" ~doc:"degradation-ladder pipeline"

module Log = (val Logs.src_log src : Logs.LOG)

(* --- model validation ----------------------------------------------- *)

let validate_app app =
  let problems = ref [] in
  let add fmt = Fmt.kstr (fun m -> problems := m :: !problems) fmt in
  if App.num_tasks app = 0 then add "no tasks";
  (* the model constructors enforce these; re-checked here so the pipeline
     stands on its own even if a future construction path forgets *)
  List.iter
    (fun (t : Task.t) ->
      if Time.compare t.Task.period Time.zero <= 0 then
        add "task %s: non-positive period %a" t.Task.name Time.pp t.Task.period)
    (App.tasks app);
  List.iter
    (fun (l : Label.t) ->
      if l.Label.size <= 0 then
        add "label %s: non-positive size %d" l.Label.name l.Label.size)
    (App.labels app);
  (* single-writer model at the name level: two labels sharing a name are
     two writers of one logical variable *)
  let writer_of = Hashtbl.create 16 in
  List.iter
    (fun (l : Label.t) ->
      match Hashtbl.find_opt writer_of l.Label.name with
      | None -> Hashtbl.replace writer_of l.Label.name l.Label.writer
      | Some w when w <> l.Label.writer ->
        add "label %s written by two tasks (%s and %s)" l.Label.name
          (App.task app w).Task.name
          (App.task app l.Label.writer).Task.name
      | Some _ -> add "duplicate label %s" l.Label.name)
    (App.labels app);
  Array.iteri
    (fun k u ->
      if u > 1.0 +. 1e-9 then add "core %d overloaded: utilization %.3f" k u)
    (App.total_utilization_per_core app);
  List.iter (fun m -> add "%s" m) (App.check_memory_fit app);
  List.rev !problems

(* --- ladder types ---------------------------------------------------- *)

type rung = Milp | Milp_perturbed | Heuristic | Baseline

let rung_name = function
  | Milp -> "milp"
  | Milp_perturbed -> "milp-perturbed"
  | Heuristic -> "heuristic"
  | Baseline -> "baseline"

type attempt = { rung : rung; accepted : bool; reason : string; time_s : float }

type failure =
  | Invalid_model of string list
  | No_communications
  | Unschedulable of float
  | Exhausted of attempt list

let failure_to_string = function
  | Invalid_model problems ->
    Fmt.str "invalid application model: %s" (String.concat "; " problems)
  | No_communications -> "no inter-core communications"
  | Unschedulable alpha ->
    Fmt.str "task set unschedulable with alpha=%.2f jitter bound" alpha
  | Exhausted attempts ->
    Fmt.str "every rung failed: %s"
      (String.concat "; "
         (List.map
            (fun a -> Fmt.str "%s (%s)" (rung_name a.rung) a.reason)
            attempts))

type outcome = {
  rung : rung;
  solution : Solution.t;
  certificate : Certify.t;
  gamma : Time.t array;
  attempts : attempt list;
  solve_stats : Solve.stats option;
  total_time_s : float;
}

let pp_outcome app ppf o =
  Fmt.pf ppf "@[<v>accepted %s solution in %.2fs (%d transfers)%a@,%a@]"
    (rung_name o.rung) o.total_time_s
    (Solution.num_transfers o.solution)
    Fmt.(
      list ~sep:nop (fun ppf (a : attempt) ->
          pf ppf "@,  %s: %s [%.2fs]" (rung_name a.rung) a.reason a.time_s))
    o.attempts (Certify.pp app) o.certificate

type milp_solver =
  deadline_s:float ->
  presolve:bool ->
  warm:Solution.t option ->
  chain:Milp.Simplex_core.Basis.t option ref ->
  options:Formulation.options ->
  Formulation.objective ->
  App.t ->
  Groups.t ->
  gamma:Time.t array ->
  Solve.result

let default_milp_solve ~deadline_s ~presolve ~warm ~chain ~options
    objective app groups ~gamma =
  (* [chain] carries the root LP basis between consecutive rungs: read it
     as this solve's warm-start offer, leave this solve's own root basis
     behind for the next rung (structure mismatches fall back cold inside
     the kernel, so a stale basis costs one fingerprint check) *)
  let root_basis = !chain in
  Solve.solve ~options ~deadline_s ~presolve ?warm ?root_basis
    ~basis_out:chain objective app groups ~gamma

(* Perturbed retry: tighten every gamma by 0.1% — a solution meeting the
   tightened bound meets the original a fortiori, while the shifted
   right-hand sides move the simplex away from whatever degenerate vertex
   or tolerance edge broke the first attempt. *)
let perturb_gamma =
  Array.map (fun g ->
      Time.of_ns (int_of_float (0.999 *. float_of_int (Time.to_ns g))))

let violations_summary app vs =
  Fmt.str "certification failed: %d violations, e.g. %a" (List.length vs)
    (Certify.pp_violation app)
    (List.hd vs)

(* --- the ladder ------------------------------------------------------ *)

(* Supervised MILP rung: route the rung through
   [Solve.solve_supervised], whose retry ladder escalates solver
   parameters (Dantzig pricing, no warm pool, no presolve, scaled
   iteration budgets) between attempts. The supervised path does not
   thread the basis [chain] — escalations may disable warm starts, so a
   chained basis would be misleading. *)
let supervised_milp_solve ~policy ~deadline_s ~presolve ~warm ~chain:_
    ~options objective app groups ~gamma =
  Solve.solve_supervised ~policy ~options ~deadline_s ~presolve ?warm objective
    app groups ~gamma

let run ?milp_solve ?(objective = Formulation.No_obj)
    ?(options = Formulation.default_options) ?(budget_s = 60.0) ?(alpha = 0.2)
    ?(presolve = true) ?(retries = 0) ?(backoff_s = 0.1) app =
  let milp_solve =
    match milp_solve with
    | Some f -> f
    | None when retries > 0 ->
      let policy =
        {
          Resilience.Retry.default_policy with
          Resilience.Retry.attempts = retries + 1;
          backoff_s;
        }
      in
      supervised_milp_solve ~policy
    | None -> default_milp_solve
  in
  let t0 = Milp.Clock.now () in
  let deadline = t0 +. budget_s in
  match validate_app app with
  | _ :: _ as problems -> Error (Invalid_model problems)
  | [] ->
    let groups = Groups.compute app in
    if Comm.Set.is_empty (Groups.s0 groups) then Error No_communications
    else begin
      match Rt_analysis.Sensitivity.gammas app ~alpha with
      | None -> Error (Unschedulable alpha)
      | Some s when not s.Rt_analysis.Sensitivity.schedulable ->
        Error (Unschedulable alpha)
      | Some s ->
        let gamma = s.Rt_analysis.Sensitivity.gamma in
        let attempts = ref [] in
        let record rung accepted reason time_s =
          if not accepted then
            Log.info (fun f ->
                f "rung %s rejected: %s (%.2fs)" (rung_name rung) reason time_s);
          Obs.point ~cat:"pipeline" "rung"
            [
              ("rung", Obs.Str (rung_name rung));
              ("accepted", Obs.Bool accepted);
              ("reason", Obs.Str reason);
              ("time_s", Obs.Float time_s);
            ];
          attempts := { rung; accepted; reason; time_s } :: !attempts
        in
        let finish rung (sol, cert, stats, time_s) =
          record rung true "accepted" time_s;
          Log.info (fun f -> f "pipeline settled on rung %s" (rung_name rung));
          Ok
            {
              rung;
              solution = sol;
              certificate = cert;
              gamma;
              attempts = List.rev !attempts;
              solve_stats = stats;
              total_time_s = Milp.Clock.now () -. t0;
            }
        in
        (* back-to-back MILP rungs share one basis chain: the perturbed
           model differs from the primary only in its gamma right-hand
           sides, so its root LP reoptimizes from the primary's root
           basis *)
        let chain = ref None in
        (* one MILP rung: solve against [gamma_solve], then re-certify the
           result against the ORIGINAL gamma, never trusting the hook *)
        let try_milp rung ~gamma_solve ~warm =
          Obs.span ~cat:"pipeline" (rung_name rung) @@ fun () ->
          let ta = Milp.Clock.now () in
          let r =
            milp_solve ~deadline_s:deadline ~presolve ~warm ~chain
              ~options objective app groups ~gamma:gamma_solve
          in
          let dt = Milp.Clock.now () -. ta in
          match r.Solve.solution with
          | None ->
            record rung false
              (Fmt.str "no solution (%s)"
                 (Milp.Branch_bound.status_name r.Solve.stats.Solve.status))
              dt;
            None
          | Some sol ->
            let source =
              match r.Solve.stats.Solve.status with
              | Milp.Branch_bound.Optimal -> Certify.Milp_optimal
              | _ -> Certify.Milp_incumbent
            in
            let milp = Option.map (fun x -> (r.Solve.instance, x)) r.Solve.x in
            (match Certify.certify ?milp ~source app groups ~gamma sol with
             | Ok cert -> Some (sol, cert, Some r.Solve.stats, dt)
             | Error vs ->
               record rung false (violations_summary app vs) dt;
               None)
        in
        (* heuristic/baseline rung: certify a directly-constructed plan *)
        let try_direct rung source sol_opt =
          Obs.span ~cat:"pipeline" (rung_name rung) @@ fun () ->
          let ta = Milp.Clock.now () in
          match sol_opt with
          | None ->
            record rung false "no plan produced" (Milp.Clock.now () -. ta);
            None
          | Some sol ->
            let dt0 = Milp.Clock.now () in
            (match Certify.certify ~source app groups ~gamma sol with
             | Ok cert -> Some (sol, cert, None, Milp.Clock.now () -. ta)
             | Error vs ->
               record rung false (violations_summary app vs)
                 (Milp.Clock.now () -. dt0);
               None)
        in
        (* the heuristic plan warm-starts the primary rung and is the
           heuristic rung's candidate *)
        let heuristic = Heuristic.solve_unchecked app groups ~gamma in
        let perturbed () =
          if Milp.Clock.remaining ~deadline > 1.0 then
            try_milp Milp_perturbed ~gamma_solve:(perturb_gamma gamma)
              ~warm:None
          else begin
            record Milp_perturbed false "skipped: budget exhausted" 0.0;
            None
          end
        in
        let baseline () =
          Solution.make
            ~allocation:(Allocation.identity app)
            ~slots:
              (Array.of_list (Giotto.singleton_transfers app (Groups.s0 groups)))
        in
        (* the rungs, tried in order until one certifies *)
        let rec walk = function
          | [] -> Error (Exhausted (List.rev !attempts))
          | (rung, attempt) :: rest -> (
            match attempt () with
            | Some acc -> finish rung acc
            | None -> walk rest)
        in
        walk
          [
            (Milp, fun () -> try_milp Milp ~gamma_solve:gamma ~warm:heuristic);
            (Milp_perturbed, perturbed);
            (Heuristic, fun () -> try_direct Heuristic Certify.Heuristic heuristic);
            ( Baseline,
              fun () -> try_direct Baseline Certify.Baseline (Some (baseline ()))
            );
          ]
    end
