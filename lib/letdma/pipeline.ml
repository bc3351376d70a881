open Rt_model
open Let_sem

(* The hardened entry point: validate, then walk MILP -> heuristic ->
   baseline under one absolute wall-clock deadline, accepting the first
   rung whose output the independent certifier vouches for. The pipeline
   re-certifies every rung itself — it never trusts a certificate
   claimed by the solver hook. *)

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

type rung = Milp | Heuristic | Baseline

let rung_name = function
  | Milp -> "milp"
  | Heuristic -> "heuristic"
  | Baseline -> "baseline"

type attempt = { rung : rung; accepted : bool; reason : string; time_s : float }

type failure =
  | Invalid_model of string list
  | Rejected of Experiment.error
  | Exhausted of attempt list

let failure_to_string = function
  | Invalid_model problems ->
    Fmt.str "invalid application model: %s" (String.concat "; " problems)
  | Rejected e -> Experiment.error_to_string e
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
  Formulation.objective ->
  App.t ->
  Groups.t ->
  gamma:Time.t array ->
  Solve.result

let default_milp_solve ~deadline_s objective app groups ~gamma =
  Solve.solve ~deadline_s objective app groups ~gamma

let violations_summary app vs =
  Fmt.str "certification failed: %d violations, e.g. %a" (List.length vs)
    (Certify.pp_violation app)
    (List.hd vs)

(* The fallback rungs' plans: the per-task heuristic plan whatever the
   objective (the grouped OBJ-DMAT warm start can break Property 1), and
   the Giotto-DMA-A baseline, each with its certifier verdict. *)
let fallback rung app groups ~gamma =
  let certified source sol =
    (sol, Certify.certify ~source app groups ~gamma sol)
  in
  match rung with
  | Milp -> invalid_arg "Pipeline.fallback: the MILP rung has no fallback plan"
  | Heuristic ->
    Option.map
      (certified Certify.Heuristic)
      (Heuristic.solve_unchecked app groups ~gamma)
  | Baseline ->
    Some (certified Certify.Baseline (Baselines.giotto_solution app groups))

(* --- the ladder ------------------------------------------------------ *)

let run ?(milp_solve = default_milp_solve) ?(objective = Formulation.No_obj)
    ?(budget_s = 60.0) ?(alpha = 0.2) app =
  let t0 = Milp.Clock.now () in
  let deadline = t0 +. budget_s in
  match validate_app app with
  | _ :: _ as problems -> Error (Invalid_model problems)
  | [] -> (
    match Experiment.prepare app ~alpha with
    | Error e -> Error (Rejected e)
    | Ok (groups, gamma) ->
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
      (* the MILP rung: solve, then re-certify the result, never
         trusting the hook *)
      let try_milp () =
        Obs.span ~cat:"pipeline" (rung_name Milp) @@ fun () ->
        let ta = Milp.Clock.now () in
        let r = milp_solve ~deadline_s:deadline objective app groups ~gamma in
        let dt = Milp.Clock.now () -. ta in
        match r.Solve.solution with
        | None ->
          record Milp false
            (Fmt.str "no solution (%s)"
               (Milp.Branch_bound.status_name r.Solve.stats.Solve.status))
            dt;
          None
        | Some sol ->
          let source = Certify.milp_source r.Solve.stats.Solve.status in
          let milp = Option.map (fun x -> (r.Solve.instance, x)) r.Solve.x in
          (match Certify.certify ?milp ~source app groups ~gamma sol with
           | Ok cert -> Some (sol, cert, Some r.Solve.stats, dt)
           | Error vs ->
             record Milp false (violations_summary app vs) dt;
             None)
      in
      (* heuristic/baseline rung: its certified fallback plan *)
      let try_fallback rung () =
        Obs.span ~cat:"pipeline" (rung_name rung) @@ fun () ->
        let ta = Milp.Clock.now () in
        let plan = fallback rung app groups ~gamma in
        let dt = Milp.Clock.now () -. ta in
        match plan with
        | None ->
          record rung false "no plan produced" dt;
          None
        | Some (sol, Ok cert) -> Some (sol, cert, None, dt)
        | Some (_, Error vs) ->
          record rung false (violations_summary app vs) dt;
          None
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
          (Milp, try_milp);
          (Heuristic, try_fallback Heuristic);
          (Baseline, try_fallback Baseline);
        ])
