(* The two in-process workloads: WATERS 2019 Table I configurations and a
   seeded design-space-exploration batch of generator instances. Every
   config goes through [Letdma.Experiment.run_config] with a node budget;
   the traced pass makes the same calls layer by layer, in run_config's
   order, inside spans. *)

open Let_sem
module F = Letdma.Formulation
module BB = Milp.Branch_bound

let objectives =
  [ ("no-obj", F.No_obj); ("obj-dmat", F.Min_transfers);
    ("obj-del", F.Min_delay_ratio) ]

(* A safety net so a run always ends; the budgets are node counts and
   no config comes near this on the reference machine. *)
let time_limit_s = 150.0

type config = {
  cid : string;
  make : unit -> Rt_model.App.t;  (** regenerates the instance *)
  app : Rt_model.App.t;
  alpha : float;
  obj_name : string;
  objective : F.objective;
  node_limit : int;
}

type outcome = {
  cfg : config;
  wall_s : float;
  rejected : bool;  (** the program refused the draw (no comms, unschedulable) *)
  answered : bool;  (** a plan came back *)
  certified : bool;
  proved : bool;
  lambda_ok : bool;  (** every simulated lambda_i <= gamma_i *)
  lp_free : bool;  (** answered without solving any LP *)
  pivots : int;
  signature : string;  (** status, objective, nodes, pivots *)
}

let status_name = function
  | BB.Optimal -> "optimal"
  | BB.Feasible -> "feasible"
  | BB.Infeasible -> "infeasible"
  | BB.Unbounded -> "unbounded"
  | BB.Unknown -> "unknown"

let granularity = function
  | F.Min_transfers -> Letdma.Heuristic.Grouped
  | F.No_obj | F.Min_delay_ratio -> Letdma.Heuristic.Per_task

(* Objective of the accepted plan, re-encoded outside the timed region. *)
let objective_value cfg groups gamma sol =
  let inst = F.make cfg.objective cfg.app groups ~gamma in
  match F.encode inst sol with
  | None -> "none"
  | Some x ->
    let _, e = Milp.Problem.objective inst.F.problem in
    Printf.sprintf "%.17g" (Milp.Linexpr.eval e x)

let signature ~status ~obj ~(st : Letdma.Solve.stats) ~transfers =
  Printf.sprintf "%s obj=%s nodes=%d pivots=%d dual=%d rounds=%d transfers=%d gap=%s"
    status obj st.Letdma.Solve.nodes st.Letdma.Solve.lp.BB.lp_pivots
    st.Letdma.Solve.lp.BB.lp_dual_pivots st.Letdma.Solve.rounds transfers
    (match st.Letdma.Solve.gap with
     | Some g -> Printf.sprintf "%.17g" g
     | None -> "-")

let lambda_ok gamma (m : Dma_sim.Sim.metrics) =
  let ok = ref true in
  Array.iteri
    (fun i l -> if Rt_model.Time.compare l gamma.(i) > 0 then ok := false)
    m.Dma_sim.Sim.lambda;
  !ok

let outcome_of cfg wall_s ~rejected ~answered ~certified ?(proved = false)
    ?(lambda_ok = true) ?(lp_free = false) ?(pivots = 0) signature =
  { cfg; wall_s; rejected; answered; certified; proved; lambda_ok; lp_free;
    pivots; signature }

(* ---------- untraced: the user path ---------- *)

(* Every config starts from a compacted heap, so its time does not
   depend on what ran before it (OBJ-DMAT leaves a large heap behind). *)
let run_untraced cfg =
  let solver =
    Letdma.Experiment.milp ~node_limit:cfg.node_limit ~time_limit_s
      cfg.objective
  in
  Gc.compact ();
  let r, wall_s =
    Util.timed (fun () ->
        Letdma.Experiment.run_config ~solver cfg.app ~alpha:cfg.alpha)
  in
  let module E = Letdma.Experiment in
  match r with
  | Ok res ->
    let st = Option.get res.E.solve_stats in
    let groups = Groups.compute cfg.app in
    let obj = objective_value cfg groups res.E.gamma res.E.solution in
    outcome_of cfg wall_s ~rejected:false ~answered:true ~certified:true
      ~proved:(st.Letdma.Solve.status = BB.Optimal)
      ~lambda_ok:
        (lambda_ok res.E.gamma (E.metrics_of res Letdma.Baselines.Proposed))
      ~lp_free:(st.Letdma.Solve.lp.BB.lp_pivots = 0)
      ~pivots:st.Letdma.Solve.lp.BB.lp_pivots
      (signature ~status:(status_name st.Letdma.Solve.status) ~obj ~st
         ~transfers:res.E.num_transfers)
  | Error (E.No_communications | E.Unschedulable _) ->
    outcome_of cfg wall_s ~rejected:true ~answered:false ~certified:false
      "rejected"
  | Error (E.No_solution _) ->
    outcome_of cfg wall_s ~rejected:false ~answered:false ~certified:false
      "no-solution"
  | Error (E.Uncertified _) ->
    outcome_of cfg wall_s ~rejected:false ~answered:true ~certified:false
      "uncertified"

(* ---------- traced: the same calls, one span per layer ---------- *)

(* Per-config layer counters read from what the layers return. *)
type layer = {
  model : string;  (** config or request model the counters belong to *)
  stats : Letdma.Solve.stats option;
  vars : int;
  rows : int;
  rows_dropped : int;
  checks : int;
  rejects : int;
  root_pivots : (int * int) option;  (** (presolved, built) root LP pivots *)
  presolve_s : float;
}

let no_layer =
  { model = ""; stats = None; vars = 0; rows = 0; rows_dropped = 0; checks = 0;
    rejects = 0; root_pivots = None; presolve_s = 0.0 }

let lp_pivots p =
  let counters = Milp.Simplex_core.fresh_counters () in
  ignore (Milp.Simplex.solve ~counters p);
  counters.Milp.Simplex_core.pivots

(* Spans named here repeat work that run_config does inside Solve.solve
   (or is not part of run_config at all); they are left out of a traced
   config's wall time. *)
let extra_spans =
  [ "formulation"; "fingerprint"; "presolve"; "certify"; "lp.built_root";
    "lp.presolved_root"; "workload.make"; "objective" ]

(* [Certify.certify] on a solve's plan inside a span; the layer records
   the checks made, or one reject. *)
let certify_layer span layer (r : Letdma.Solve.result) app groups ~gamma =
  match (r.Letdma.Solve.solution, r.Letdma.Solve.x) with
  | Some sol, Some x -> (
    let source =
      if r.Letdma.Solve.stats.Letdma.Solve.status = BB.Optimal then
        Letdma.Certify.Milp_optimal
      else Letdma.Certify.Milp_incumbent
    in
    match
      span "certify" (fun () ->
          Letdma.Certify.certify ~milp:(r.Letdma.Solve.instance, x) ~source app
            groups ~gamma sol)
    with
    | Ok c -> { layer with checks = c.Letdma.Certify.checks }
    | Error _ -> { layer with rejects = 1 })
  | _ -> layer

let run_traced sp cfg =
  let op = cfg.cid in
  let span name f = Spans.span sp ~op name f in
  let before = List.length sp.Spans.closed in
  Gc.compact ();
  let result, layer =
    span "config" @@ fun () ->
    let app = span "workload.make" cfg.make in
    let groups = span "let_sem.groups" (fun () -> Groups.compute app) in
    let rejected = ("rejected", no_layer) in
    if Comm.Set.is_empty (Groups.s0 groups) then rejected
    else
      match
        span "rt_analysis.gammas" (fun () ->
            Rt_analysis.Sensitivity.gammas app ~alpha:cfg.alpha)
      with
      | None -> rejected
      | Some s when not s.Rt_analysis.Sensitivity.schedulable -> rejected
      | Some s ->
        let gamma = s.Rt_analysis.Sensitivity.gamma in
        let warm =
          span "heuristic" (fun () ->
              Letdma.Heuristic.solve_unchecked
                ~granularity:(granularity cfg.objective) app groups ~gamma)
        in
        let inst =
          span "formulation" (fun () -> F.make cfg.objective app groups ~gamma)
        in
        let p = inst.F.problem in
        ignore
          (span "fingerprint" (fun () -> Resilience.Checkpoint.fingerprint p));
        let (reduced, pre), presolve_s =
          Util.timed (fun () -> span "presolve" (fun () -> Milp.Presolve.run p))
        in
        let r =
          span "solve" (fun () ->
              Letdma.Solve.solve ~time_limit_s ~node_limit:cfg.node_limit
                ~jobs:1 ~presolve:true ?warm cfg.objective app groups ~gamma)
        in
        let st = r.Letdma.Solve.stats in
        (* Root LP with and without presolve, both through
           Milp.Simplex.solve. Under a root-node budget the solve above
           already is the presolved root LP (same kernel, same pricing),
           so it is not solved a second time. *)
        let root_pivots =
          match (cfg.objective, reduced) with
          | F.No_obj, _ | _, Milp.Presolve.Infeasible _ -> None
          | _, Milp.Presolve.Reduced q ->
            let built = span "lp.built_root" (fun () -> lp_pivots p) in
            let presolved =
              if cfg.node_limit = 1 then st.Letdma.Solve.lp.BB.lp_pivots
              else span "lp.presolved_root" (fun () -> lp_pivots q)
            in
            Some (presolved, built)
        in
        let layer =
          { model = cfg.cid; stats = Some st; vars = Milp.Problem.num_vars p;
            rows = Milp.Problem.num_constrs p;
            rows_dropped = pre.Milp.Presolve.rows_dropped; checks = 0;
            rejects = 0; root_pivots; presolve_s }
        in
        let layer = certify_layer span layer r app groups ~gamma in
        match r.Letdma.Solve.solution with
        | Some sol ->
          (match r.Letdma.Solve.certificate with
           | Some (Ok _) ->
             List.iter
               (fun a ->
                 ignore
                   (span "dma_sim" (fun () ->
                        Letdma.Baselines.run app groups a ~solution:(Some sol))))
               Letdma.Baselines.all_approaches;
             let obj =
               span "objective" (fun () -> objective_value cfg groups gamma sol)
             in
             ( signature ~status:(status_name st.Letdma.Solve.status) ~obj ~st
                 ~transfers:(Letdma.Solution.num_transfers sol),
               layer )
           | _ -> ("uncertified", layer))
        | _ -> ("no-solution", layer)
  in
  (* wall time of the calls run_config itself makes *)
  let fresh = List.filteri (fun i _ -> i < List.length sp.Spans.closed - before) sp.Spans.closed in
  let dur (s : Stats.span) = s.Stats.stop -. s.Stats.start in
  let config_s = List.fold_left (fun acc (n, s) -> if n = "config" then acc +. dur s else acc) 0.0 fresh in
  let extra_s = List.fold_left (fun acc (n, s) -> if List.mem n extra_spans then acc +. dur s else acc) 0.0 fresh in
  (result, layer, config_s -. extra_s)

(* ---------- workload definitions ---------- *)

(* waters-table1: the paper's case study at alpha = 0.2 under a
   root-node budget. One pass is fixed work: OBJ-DMAT and OBJ-DEL once
   each (OBJ-DMAT's root LP takes about a minute) and NO-OBJ fifteen
   times, in an order drawn from the seed, so the NO-OBJ samples spread
   over the whole run. *)
let waters_pass ~seed =
  let make () = Workload.Waters2019.make ~labels_per_edge:1 () in
  let app = make () in
  let cfg (obj_name, objective) =
    { cid = "waters/" ^ obj_name; make; app; alpha = 0.2; obj_name;
      objective; node_limit = 1 }
  in
  let cfgs =
    List.concat_map
      (fun ((_, objective) as o) ->
        List.init (if objective = F.No_obj then 15 else 1) (fun _ -> cfg o))
      objectives
  in
  let st = Random.State.make [| seed |] in
  List.map (fun c -> (Random.State.bits st, c)) cfgs
  |> List.sort compare |> List.map snd

(* dse-batch: sixteen generator draws at alpha = 0.3 (the generator
   ablations' alpha), each under NO-OBJ, OBJ-DMAT and OBJ-DEL with a
   200-node budget; about 20 s on a 2-vCPU x86-64 host. NO-OBJ
   short-circuits on the heuristic incumbent in about a millisecond; it
   gives the workload its LP-free class. Draw [i] of a seed is always the
   same instance; rejected draws are not replaced. *)
let dse_node_limit = 200

let dse_draws = 16

let dse_draw ~seed i =
  let st = Random.State.make [| seed; i |] in
  let inst_seed = Random.State.bits st in
  let make () =
    Workload.Generator.random ~seed:inst_seed
      ~config:Workload.Generator.small_config ()
  in
  let app = make () in
  List.map
    (fun (obj_name, objective) ->
      { cid = Printf.sprintf "dse/%d/%s" inst_seed obj_name; make; app;
        alpha = 0.3; obj_name; objective; node_limit = dse_node_limit })
    objectives

(* ---------- one run ---------- *)

let mean_of f xs = Stats.mean (List.map f xs)

(* [f ()] with Obs aggregating in memory, and the summed wall time of
   Solve's branch-and-bound rounds (the "solver/round" span). *)
let with_rounds f =
  Obs.start ();
  let r = Fun.protect f ~finally:Obs.stop in
  let round_s =
    List.fold_left
      (fun a (row : Obs.row) ->
        if row.Obs.cat = "solver" && row.Obs.name = "round" then a +. row.Obs.total_s
        else a)
      0.0 (Obs.metrics ())
  in
  (r, round_s)

(* Per-layer metrics of a traced pass: mean span times per call, and the
   counters each solve returned. [round_s] is B&B wall time including
   its root presolve. Layers a workload never calls stay unset. *)
let layer_metrics m sp layers ~round_s =
  let set = Util.set m in
  List.iter
    (fun (span_name, metric) ->
      match Spans.durations sp span_name with
      | [] -> ()
      | xs -> set metric (Stats.mean xs *. 1e3))
    [ ("workload.make", "workload.make_ms"); ("let_sem.groups", "let_sem.groups_ms");
      ("rt_analysis.gammas", "rt_analysis.gammas_ms"); ("heuristic", "heuristic.ms");
      ("dma_sim", "dma_sim.ms"); ("formulation", "formulation.ms");
      ("fingerprint", "fingerprint.ms"); ("presolve", "presolve.ms");
      ("certify", "certify.ms") ];
  let solved = List.filter_map (fun l -> Option.map (fun s -> (l, s)) l.stats) layers in
  if solved <> [] then begin
  let ls = List.map fst solved and ss = List.map snd solved in
  let fi f = mean_of (fun x -> float_of_int (f x)) in
  let lp f (s : Letdma.Solve.stats) = f s.Letdma.Solve.lp in
  set "formulation.vars" (fi (fun l -> l.vars) ls);
  set "formulation.rows" (fi (fun l -> l.rows) ls);
  set "presolve.rows_dropped" (fi (fun l -> l.rows_dropped) ls);
  (* one root comparison per distinct model *)
  let roots =
    List.sort_uniq compare
      (List.filter_map (fun l -> Option.map (fun r -> (l.model, r)) l.root_pivots) ls)
    |> List.map snd
  in
  if roots <> [] then
    set "presolve.root_pivot_ratio"
      (Stats.ratio
         (float_of_int (List.fold_left (fun a (p, _) -> a + p) 0 roots))
         (float_of_int (List.fold_left (fun a (_, b) -> a + b) 0 roots)));
  let sumf f = List.fold_left (fun a s -> a +. f s) 0.0 ss in
  let sumi f = List.fold_left (fun a s -> a + f s) 0 ss in
  let lp_s = sumf (lp (fun l -> l.BB.lp_time_s)) in
  let pivots = sumi (lp (fun l -> l.BB.lp_pivots)) in
  set "lp.s" (mean_of (lp (fun l -> l.BB.lp_time_s)) ss);
  set "lp.pivots" (fi (lp (fun l -> l.BB.lp_pivots)) ss);
  set "lp.dual_pivots" (fi (lp (fun l -> l.BB.lp_dual_pivots)) ss);
  set "lp.priced" (fi (lp (fun l -> l.BB.lp_pricing_scanned)) ss);
  set "lp.us_per_pivot" (Stats.ratio (lp_s *. 1e6) (float_of_int pivots));
  set "bb.nodes" (fi (fun s -> s.Letdma.Solve.nodes) ss);
  (* presolve ran inside B&B only where the search was not skipped by
     the feasibility shortcut *)
  let searched_presolve_s =
    List.fold_left
      (fun a (l, (s : Letdma.Solve.stats)) ->
        if s.Letdma.Solve.nodes > 0 || s.Letdma.Solve.lp.BB.lp_pivots > 0 then
          a +. l.presolve_s
        else a)
      0.0 solved
  in
  let n = float_of_int (max 1 (List.length ss)) in
  set "bb.self_s" (Float.max 0.0 (round_s -. searched_presolve_s -. lp_s) /. n);
  let hits = sumi (lp (fun l -> l.BB.lp_warm_hits)) in
  let misses = sumi (lp (fun l -> l.BB.lp_warm_misses)) in
  set "bb.warm_hit_ratio" (Stats.share hits (hits + misses));
  set "bb.pivots_saved" (fi (lp (fun l -> l.BB.lp_dual_pivots_saved)) ss);
  set "bb.evictions" (fi (lp (fun l -> l.BB.lp_basis_evictions)) ss);
  set "solve.rounds" (fi (fun s -> s.Letdma.Solve.rounds) ss);
  set "solve.c6_rows" (fi (fun s -> s.Letdma.Solve.c6_constraints) ss);
  set "solve.other_s" (Float.max 0.0 (Spans.total sp "solve" -. round_s) /. n);
  Util.set_mean m "bb.gap_mean" (List.filter_map (fun s -> s.Letdma.Solve.gap) ss);
  if Spans.durations sp "certify" <> [] then begin
    set "certify.checks" (fi (fun l -> l.checks) ls);
    set "certify.rejects"
      (float_of_int (List.fold_left (fun a l -> a + l.rejects) 0 ls))
  end
  end

(* The end-to-end metrics of the untraced configs. *)
let end_to_end m outcomes ~setup_s =
  let set = Util.set m in
  let tried = List.filter (fun x -> not x.rejected) outcomes in
  let answered = List.filter (fun x -> x.answered) tried in
  let count p xs = List.length (List.filter p xs) in
  set "setup_s" setup_s;
  set "answered_share" (Stats.share (List.length answered) (List.length tried));
  set "certified_share" (Stats.share (count (fun x -> x.certified) answered) (List.length answered));
  set "proved_share" (Stats.share (count (fun x -> x.proved) answered) (List.length answered));
  set "mem.peak_rss_mb" (Util.peak_rss_mb "self")

(* Per-objective config times (median) and config time per pivot of the
   configs that solved LPs. *)
let config_metrics m outcomes =
  let tried = List.filter (fun x -> not x.rejected) outcomes in
  let solved = List.filter (fun x -> x.answered && not x.lp_free) tried in
  Util.set m "experiment.solve_us_per_pivot"
    (Stats.median
       (List.map (fun x -> x.wall_s *. 1e6 /. float_of_int x.pivots) solved));
  List.iter
    (fun (name, _) ->
      match List.filter (fun x -> x.cfg.obj_name = name) tried with
      | [] -> ()
      | xs ->
        Util.set m ("experiment.config_s." ^ name)
          (Stats.median (List.map (fun x -> x.wall_s) xs)))
    objectives

(* A run's inputs: the waters pass, or the dse draws. *)
let inputs (o : Util.opts) =
  if o.Util.workload = "waters-table1" then (waters_pass ~seed:o.Util.seed, [||])
  else ([], Array.init dse_draws (dse_draw ~seed:o.Util.seed))

(* Set-up: build the inputs and run one first-call warm-up config
   (NO-OBJ pays about 3x on its first call). *)
let setup o =
  let ((cfgs, draws) as inputs) = inputs o in
  let warm =
    if draws = [||] then List.find (fun x -> x.objective = F.No_obj) cfgs
    else List.hd draws.(0)
  in
  ignore (run_untraced warm);
  inputs

(* One set-up in a fresh process: this executable re-run with
   [--setup-only], timed from the spawn until the child reports that its
   set-up is done, so process start and first-call costs are in it. *)
let fresh_setup_s () =
  let t = Util.now () in
  let ic =
    Unix.open_process_args_in Sys.executable_name
      (Array.append Sys.argv [| "--setup-only" |])
  in
  let line = In_channel.input_line ic in
  let s = Util.now () -. t in
  match (line, Unix.close_process_in ic) with
  | Some "ready", Unix.WEXITED 0 -> s
  | _ -> failwith "a set-up process failed"

let run (o : Util.opts) =
  let m : Util.metrics = Hashtbl.create 64 and c = Util.checks () in
  let waters = o.Util.workload = "waters-table1" in
  let setup_s = Stats.median (List.init Util.setup_samples (fun _ -> fresh_setup_s ())) in
  let cfgs, draws = setup o in
  let plan = ref [] and outcomes = ref [] in
  let run_cfg cfg =
    let r = run_untraced cfg in
    plan := cfg :: !plan;
    outcomes := r :: !outcomes;
    r
  in
  let rejected_draws = ref 0 in
  if waters then
    (* the traced run leaves out the untraced OBJ-DMAT config, which
       would double the run's long pole; it is traced once *)
    List.iter
      (fun x ->
        if not (o.Util.trace && x.objective = F.Min_transfers) then
          ignore (run_cfg x))
      cfgs
  else
    Array.iter
      (function
        | [] -> ()
        | first :: rest ->
          let r = run_cfg first in
          if r.rejected then incr rejected_draws
          else List.iter (fun x -> ignore (run_cfg x)) rest)
      draws;
  let outcomes = List.rev !outcomes and plan = List.rev !plan in
  List.iter
    (fun x ->
      Util.check c x.lambda_ok "%s: a simulated lambda exceeds its gamma" x.cfg.cid)
    outcomes;
  end_to_end m outcomes ~setup_s;
  Util.set m "workload.rejected_draws" (float_of_int !rejected_draws);
  Util.pr "traffic: %d configs, %d rejected draws" (List.length outcomes)
    !rejected_draws;
  List.iter
    (fun x -> Util.pr "config %s %.6fs %s" x.cfg.cid x.wall_s x.signature)
    outcomes;
  let attempted = ref (List.length outcomes) in
  let traced_spans =
    if not o.Util.trace then begin
      config_metrics m outcomes;
      None
    end
    else begin
      (* obs.overhead: the untraced configs again, with the library's Obs
         tracing on (in memory), over their untraced wall time; run before
         the traced pass, whose large OBJ-DMAT heap would slow it *)
      let observed = List.map (fun cfg -> Obs.with_trace (fun () -> run_untraced cfg)) plan in
      List.iter (fun x -> Util.pr "config %s (Obs on) %.6fs" x.cfg.cid x.wall_s) observed;
      List.iter2
        (fun u t ->
          Util.check c (u.signature = t.signature) "%s: run with Obs on differs: %s vs %s"
            u.cfg.cid t.signature u.signature)
        outcomes observed;
      let sum xs = List.fold_left (fun a x -> a +. x.wall_s) 0.0 xs in
      Util.set m "obs.overhead" (Stats.ratio (sum observed) (sum outcomes));
      let sp = Spans.create () in
      let extra =
        if waters then [ List.find (fun x -> x.objective = F.Min_transfers) cfgs ]
        else []
      in
      let traced, round_s =
        with_rounds (fun () -> List.map (run_traced sp) (plan @ extra))
      in
      attempted := !attempted + List.length observed + List.length traced;
      let n = List.length outcomes in
      List.iteri
        (fun i (sg, _, _) ->
          match List.nth_opt outcomes i with
          | Some u ->
            Util.check c (u.signature = sg) "%s: traced pass differs: %s vs %s"
              u.cfg.cid sg u.signature
          | None ->
            Util.pr "config %s (traced only) %s" (List.nth (plan @ extra) i).cid sg)
        traced;
      (* a config run traced only (waters OBJ-DMAT) gives its sample of
         the config times from its traced calls to run_config's layers *)
      let traced_only =
        List.filteri (fun i _ -> i >= n) (List.combine (plan @ extra) traced)
        |> List.map (fun (cfg, (sg, l, wall_s)) ->
               let pivots =
                 match l.stats with
                 | Some st -> st.Letdma.Solve.lp.BB.lp_pivots
                 | None -> 0
               in
               let answered = sg <> "rejected" && sg <> "no-solution" in
               outcome_of cfg wall_s ~rejected:(sg = "rejected") ~answered
                 ~certified:(answered && sg <> "uncertified")
                 ~lp_free:(pivots = 0) ~pivots sg)
      in
      config_metrics m (outcomes @ traced_only);
      layer_metrics m sp (List.map (fun (_, l, _) -> l) traced) ~round_s;
      Some sp
    end
  in
  (m, c, !attempted, traced_spans)
