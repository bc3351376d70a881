open Let_sem
open Mem_layout

(* Solver driver: branch-and-bound over the formulation, with Constraint 6
   generated lazily — solve, check every pattern's projected transfers for
   contiguity under the decoded allocation, add the violated Constraint 6
   blocks, re-solve. The optimum is unchanged w.r.t. the full formulation
   (cuts are only added when violated); small instances can force the full
   model upfront with [options.full_c6] (compared in an ablation bench).
   A round under a min-max objective whose start does not meet the
   objective's structural floor first searches at the floor: the same
   model with the objective variable capped there, which root presolve
   propagates into a small feasibility problem. A plan it finds meets a
   proven floor, so it is optimal; otherwise the open search gets the
   rest of the round. Each search is one sequential best-first search.
   Short of a conclusive answer, a round ends only at its deadline, node
   limit or LP iteration cap, or at the [interrupt_after_nodes] test
   hook. *)

let src = Logs.Src.create "letdma.solve" ~doc:"lazy MILP solver driver"

module Log = (val Logs.src_log src : Logs.LOG)

module Checkpoint = Resilience.Checkpoint

type stats = {
  rounds : int; (* lazy iterations (1 = no violation found) *)
  c6_constraints : int; (* Constraint 6 rows generated *)
  nodes : int; (* branch-and-bound nodes over all rounds *)
  time_s : float;
  status : Milp.Branch_bound.status; (* of the last round *)
  gap : float option;
      (* (incumbent - bound) / max(1, |incumbent|): absolute below 1 *)
  best_bound : float option; (* the last round's proven bound *)
  milp_vars : int;
  milp_constraints : int;
  lp : Milp.Branch_bound.lp_stats;
      (* LP-kernel work + presolve reductions, summed over all rounds *)
}

type result = {
  solution : Solution.t option;
  x : float array option;
      (* the accepted MILP assignment: the plan's exact encoding when it
         passes every row, else the raw LP vertex *)
  certificate : (Certify.t, Certify.violation list) Stdlib.result option;
      (* independent re-verification of [solution]; [None] iff no solution *)
  stats : stats;
  instance : Formulation.instance;
}

(* One branch-and-bound round. [hooks] carries the interrupt test hook.
   [ck] bundles the checkpoint arguments as (writer, every, resume).
   [bound] is the model's proven objective floor. *)
let bb_solve ~presolve ~hooks ?ck ~deadline ~node_limit ?incumbent ?bound p =
  let hooks = Obs.Solver_hooks.wrap hooks in
  let on_checkpoint, checkpoint_every, resume =
    match ck with
    | Some (f, every, resume) -> (Some f, every, resume)
    | None -> (None, 0, None)
  in
  Milp.Branch_bound.solve ~deadline ~node_limit ?incumbent ?bound ~hooks
    ~presolve ~checkpoint_every ?on_checkpoint ?resume p

(* (pattern, class) blocks whose projected transfers break contiguity. *)
let find_violations inst (sol : Solution.t) =
  let app = inst.Formulation.app in
  let alloc = Solution.allocation sol in
  let violations = ref [] in
  List.iter
    (fun (pat : Groups.pattern) ->
      let time = List.hd pat.Groups.occurrences in
      let plan = Solution.plan_at app inst.Formulation.groups sol time in
      List.iter
        (fun transfer ->
          match transfer with
          | [] -> ()
          | c :: _ ->
            let src_l = Allocation.layout alloc (Comm.src_memory app c) in
            let dst_l = Allocation.layout alloc (Comm.dst_memory app c) in
            let labels = Allocation.transfer_labels transfer in
            if not (Layout.transferable ~src:src_l ~dst:dst_l labels) then
              violations := (pat, Comm.cls app c) :: !violations)
        plan)
    (Groups.patterns inst.Formulation.groups);
  !violations

(* Lazy rounds before a solve gives up as [Unknown]: nearly every
   instance settles in round 1 (see EXPERIMENTS). *)
let max_rounds = 50

(* The heuristic MIP start of a solve: the variant matching the
   objective — maximal grouping for OBJ-DMAT, per-task latency-oriented
   transfers otherwise. *)
let warm_start objective app groups ~gamma =
  let granularity =
    match objective with
    | Formulation.Min_transfers -> Heuristic.Grouped
    | Formulation.No_obj | Formulation.Min_delay_ratio -> Heuristic.Per_task
  in
  Heuristic.solve_unchecked ~granularity app groups ~gamma

let solve ?(options = Formulation.default_options) ?(time_limit_s = 60.0)
    ?deadline_s ?(node_limit = 200_000) ?(jobs = 1) ?(presolve = true) ?warm
    ?checkpoint_file
    ?(checkpoint_every = 64) ?resume ?interrupt_after_nodes
    objective app groups ~gamma =
  (* [jobs] survives only for existing [~jobs:1] callers: every solve is
     one sequential search *)
  if jobs <> 1 then
    invalid_arg (Fmt.str "Solve.solve: jobs must be 1, got %d" jobs);
  let t0 = Milp.Clock.now () in
  (* One absolute monotonic deadline shared by every lazy round (and, via
     [deadline_s], by every rung of a degradation ladder): k rounds can
     never consume ~k times the budget. *)
  let deadline = match deadline_s with Some d -> d | None -> t0 +. time_limit_s in
  let inst = Formulation.make ~options objective app groups ~gamma in
  Log.info (fun f -> f "built %s model: %s"
               (Formulation.objective_name objective)
               (Formulation.stats_string inst));
  let problem = inst.Formulation.problem in
  (* Derived from the model alone, so a resumed search gets the same one;
     it stays valid as lazy rounds add Constraint-6 rows. *)
  let floor = Formulation.objective_floor inst in
  let bound = Option.map snd floor in
  (* The floor search's cap on the objective variable: the floor itself
     on OBJ-DMAT, whose values are integers; on OBJ-DEL the floor plus
     branch-and-bound's improvement tolerance (1e-9), so a plan under the
     cap is one the search calls optimal against the floor. *)
  let cap_of f = if objective = Formulation.Min_transfers then f else f +. 1.0e-9 in
  (* [capped (var, f) run] runs [run] with [var] capped at [cap_of f],
     and restores its bounds however [run] ends. *)
  let capped (var, f) run =
    let lo, hi = Milp.Problem.var_bounds problem var in
    Milp.Problem.set_bounds ~hi:(cap_of f) problem var;
    Fun.protect ~finally:(fun () -> Milp.Problem.set_bounds ~lo ~hi problem var) run
  in
  let durable = checkpoint_file <> None || resume <> None in
  (* The capped model differs from the open one in one bound, and so in
     its fingerprint: a checkpoint names the search that wrote it. *)
  let fp = if durable then Checkpoint.fingerprint problem else "" in
  let fp_floor =
    match floor with
    | Some vf when durable -> capped vf (fun () -> Checkpoint.fingerprint problem)
    | _ -> ""
  in
  (* Validate a resume checkpoint against the model: it resumes either
     round 1's floor search or its open search. *)
  let resume_floor, resume_open =
    match resume with
    | None -> (None, None)
    | Some (ck : Checkpoint.t) ->
      let f = ck.Checkpoint.ck_fingerprint in
      if f = fp then (None, Some ck.Checkpoint.ck_state)
      else if f = fp_floor && fp_floor <> "" then
        (Some ck.Checkpoint.ck_state, None)
      else
        invalid_arg
          (Fmt.str
             "Solve.solve: checkpoint fingerprint %s does not match the \
              model (%s) — different workload, objective, options or a \
              later lazy round"
             f fp)
  in
  (* Writer: wrap each solver snapshot in a versioned file. Only round 1
     checkpoints are written — later lazy rounds solve a model grown by
     Constraint-6 cuts that a fresh process cannot reproduce without
     replaying the earlier rounds, so their fingerprint would never match
     on load. (Nearly all instances finish in round 1; see EXPERIMENTS.) *)
  let write_state fingerprint state =
    match checkpoint_file with
    | None -> ()
    | Some file ->
      let meta = [ ("objective", Formulation.objective_name objective) ] in
      (match Checkpoint.save file (Checkpoint.make ~meta ~fingerprint state)
       with
       | Ok () -> ()
       | Error m -> Log.err (fun f -> f "checkpoint write failed: %s" m))
  in
  (* A plan passes when its encoding meets the model's rows. The start
     is re-encoded at every round: lazy Constraint-6 generation appends
     variables (the LG conjunctions), so a vector from an earlier round
     would no longer match the problem. *)
  let encode sol =
    match Formulation.encode inst sol with
    | Some x ->
      (match Milp.Problem.check_solution inst.Formulation.problem x with
       | [] -> Some (sol, x)
       | violated ->
         Log.debug (fun f ->
             f "MIP start rejected (%d violations, e.g. %s)"
               (List.length violated)
               (match violated with v :: _ -> v | [] -> "-"));
         None)
    | None -> None
  in
  (* Every search starts from a plan: the caller's when it passes the
     rows, else the heuristic's. Under NO-OBJ a start that passes the
     rows is optimal at 0 nodes. *)
  let heuristic = lazy (warm_start objective app groups ~gamma) in
  let start () =
    match Option.bind warm encode with
    | Some _ as s -> s
    | None -> Option.bind (Lazy.force heuristic) encode
  in
  (* A lazy round can end at the deadline or at the interrupt hook on an
     incumbent that breaks contiguity, leaving no next round. The start
     is still a plan then, when it is contiguous and passes the grown
     model's rows. *)
  let contiguous_start () =
    match start () with
    | Some (sol, _) as s when find_violations inst sol = [] -> s
    | _ -> None
  in
  (* [interrupt_after_nodes] stops the solve after that many explored
     nodes, counted over all rounds — the controlled-interrupt half of
     the chaos gate (checkpoint, kill, resume). *)
  let nodes_seen = ref 0 in
  let interrupted () =
    match interrupt_after_nodes with
    | Some limit -> !nodes_seen >= limit
    | None -> false
  in
  let hooks =
    match interrupt_after_nodes with
    | None -> Milp.Branch_bound.no_hooks
    | Some _ ->
      {
        Milp.Branch_bound.no_hooks with
        should_stop = interrupted;
        on_node = (fun ~node:_ ~depth:_ ~bound:_ ~pivots:_ -> incr nodes_seen);
      }
  in
  let c6_total = ref 0 in
  let nodes_total = ref 0 in
  let lp_total = ref Milp.Branch_bound.lp_zero in
  let tally (bb : Milp.Branch_bound.solution) =
    nodes_total := !nodes_total + bb.Milp.Branch_bound.stats.Milp.Branch_bound.nodes;
    lp_total :=
      Milp.Branch_bound.lp_add !lp_total
        bb.Milp.Branch_bound.stats.Milp.Branch_bound.lp;
    bb
  in
  (* One lazy round's search. [ck_floor]/[ck_open] are the checkpoint
     arguments of its two searches (round 1 of a durable solve only).
     The floor search runs without an incumbent: any plan it finds meets
     the floor. When it stops at a limit, the open search gets no budget
     and writes no checkpoint, so the file keeps the floor search's
     state. *)
  let round_search ?ck_floor ?ck_open incumbent =
    let open_search ?ck ~nodes_used () =
      tally
        (bb_solve ~presolve ~hooks ?ck ~deadline
           ~node_limit:(node_limit - nodes_used) ?incumbent ?bound problem)
    in
    match floor with
    | Some ((var, f) as vf)
      when not
             (Option.fold ~none:false ~some:(fun x -> x.(var) <= cap_of f)
                incumbent) ->
      let fl =
        tally
          (capped vf (fun () ->
               bb_solve ~presolve ~hooks ?ck:ck_floor ~deadline
                 ~node_limit ?bound problem))
      in
      let nodes_used = fl.Milp.Branch_bound.stats.Milp.Branch_bound.nodes in
      let report outcome =
        Log.info (fun m ->
            m "floor search at %g: %s after %d nodes" f outcome nodes_used);
        if Obs.enabled () then begin
          let lp = fl.Milp.Branch_bound.stats.Milp.Branch_bound.lp in
          Obs.point ~cat:"solver" "floor_search"
            [
              ("floor", Obs.Float f);
              ("outcome", Obs.Str outcome);
              ("nodes", Obs.Int nodes_used);
              ( "pivots",
                Obs.Int
                  (lp.Milp.Branch_bound.lp_pivots
                  + lp.Milp.Branch_bound.lp_dual_pivots) );
            ]
        end
      in
      (match (fl.Milp.Branch_bound.x, fl.Milp.Branch_bound.status) with
       | Some _, _ ->
         report "plan";
         fl
       | None, Milp.Branch_bound.Unknown ->
         report "limit";
         open_search ~nodes_used ()
       | None, _ ->
         report "exhausted";
         open_search ?ck:ck_open ~nodes_used ())
    | _ -> open_search ?ck:ck_open ~nodes_used:0 ()
  in
  (* Round 1 runs whatever time is left: branch-and-bound returns the
     start promptly past its deadline. A later round needs 0.5 s, and
     none starts once the interrupt hook has fired. *)
  let rec loop round =
    let remaining = Milp.Clock.remaining ~deadline in
    if (round > 1 && (remaining <= 0.5 || interrupted ())) || round > max_rounds
    then
      match contiguous_start () with
      | Some acc -> (Some acc, Milp.Branch_bound.Feasible, None, round - 1)
      | None -> (None, Milp.Branch_bound.Unknown, None, round - 1)
    else begin
      (* Round 1 of a durable solve checkpoints whichever search runs.
         Resuming the open search replays the floor search first: it is
         deterministic and ended without a plan, and the replay writes
         no checkpoint over the open search's. *)
      let ck_floor, ck_open =
        if (not durable) || round > 1 then (None, None)
        else
          ( (if resume_open <> None then None
             else Some (write_state fp_floor, checkpoint_every, resume_floor)),
            Some (write_state fp, checkpoint_every, resume_open) )
      in
      let bb =
        Obs.span ~cat:"solver" "round" ~fields:[ ("round", Obs.Int round) ]
        @@ fun () ->
        round_search ?ck_floor ?ck_open (Option.map snd (start ()))
      in
      (* A conclusive round makes the checkpoint stale: resuming it would
         re-prove what is already proven, and no later round writes one.
         Removing it lets an operator loop "resume while a checkpoint
         exists" terminate. *)
      (match (checkpoint_file, bb.Milp.Branch_bound.status) with
       | ( Some file,
           ( Milp.Branch_bound.Optimal | Milp.Branch_bound.Infeasible
           | Milp.Branch_bound.Unbounded ) )
         when Sys.file_exists file -> (
         try
           Sys.remove file;
           Log.info (fun f ->
               f "round %d conclusive: checkpoint %s removed" round file)
         with Sys_error _ -> ())
       | _ -> ());
      let bb_stats = Some bb.Milp.Branch_bound.stats in
      match bb.Milp.Branch_bound.x with
      | None -> (None, bb.Milp.Branch_bound.status, bb_stats, round)
      | Some x ->
        let sol = Formulation.decode inst x in
        (match find_violations inst sol with
         | [] -> (Some (sol, x), bb.Milp.Branch_bound.status, bb_stats, round)
         | violations ->
           let added =
             List.fold_left
               (fun acc (pat, cls) ->
                 acc + Formulation.add_c6_for inst pat cls)
               0 violations
           in
           c6_total := !c6_total + added;
           Log.info (fun f ->
               f "round %d: %d contiguity violations, %d Constraint-6 rows added"
                 round (List.length violations) added);
           if added = 0 then
             (* the violated blocks were already generated: the solution
                should not have been violated; treat as failure *)
             (None, Milp.Branch_bound.Unknown, None, round)
           else loop (round + 1))
    end
  in
  let accepted, status, bb_stats, rounds = loop 1 in
  (* An accepted LP vertex satisfies the kernel's perturbed rows, which
     can sit up to ~1.8e-6 off the model's own (see Simplex_core.build).
     The plan it decodes to is exact: its encoding is returned, and
     certified, when it passes every row at 1e-6. The point records the
     vertex's worst row residual. *)
  let accepted =
    Option.map
      (fun (sol, x) ->
        let p = inst.Formulation.problem in
        if Obs.enabled () then
          Obs.point ~cat:"solver" "accepted_vertex"
            [
              ( "worst_row_residual",
                Obs.Float
                  (List.fold_left
                     (fun acc (r : Milp.Problem.residual) ->
                       if r.res_kind = Milp.Problem.Row then
                         Float.max acc r.res_amount
                       else acc)
                     0.0
                     (Milp.Problem.residuals ~eps:0.0 p x)) );
            ];
        match Formulation.encode inst sol with
        | Some exact when Milp.Problem.check_solution ~eps:1.0e-6 p exact = []
          ->
          (sol, exact)
        | _ -> (sol, x))
      accepted
  in
  let solution = Option.map fst accepted in
  let x = Option.map snd accepted in
  (* independent certification of accepted solutions: the decoded
     configuration is re-verified from first principles, including the raw
     assignment against every MILP row *)
  let certificate =
    match accepted with
    | None -> None
    | Some (sol, x) ->
      let source = Certify.milp_source status in
      let cert =
        Certify.certify ~milp:(inst, x) ~source app groups ~gamma sol
      in
      (match cert with
       | Ok c ->
         Log.info (fun f ->
             f "solution certified (%s, %d checks)" (Certify.source_name source)
               c.Certify.checks)
       | Error vs ->
         if inst.Formulation.options.Formulation.strict_property3 then
           Log.err (fun f ->
               f "solution failed certification (%d violations)" (List.length vs))
         else
           Log.warn (fun f ->
               f "solution fails strict certification (paper-mode Constraint 10): \
                  %d violations" (List.length vs)));
      Some cert
  in
  {
    solution;
    x;
    certificate;
    stats =
      {
        rounds;
        c6_constraints = !c6_total;
        nodes = !nodes_total;
        time_s = Milp.Clock.now () -. t0;
        status;
        gap = Option.bind bb_stats (fun b -> b.Milp.Branch_bound.gap);
        best_bound = Option.map (fun b -> b.Milp.Branch_bound.best_bound) bb_stats;
        milp_vars = Milp.Problem.num_vars inst.Formulation.problem;
        milp_constraints = Milp.Problem.num_constrs inst.Formulation.problem;
        lp = !lp_total;
      };
    instance = inst;
  }

let pp_stats ppf s =
  let lp = s.lp in
  Fmt.pf ppf
    "status=%s time=%.2fs rounds=%d nodes=%d c6=%d model=%dx%d%a%a@ \
     lp: pivots=%d dual-pivots=%d priced=%d refreshes=%d lp-time=%.2fs \
     warm: hits=%d misses=%d pivots-saved=%d evictions=%d \
     presolve: rounds=%d rows-dropped=%d bounds-tightened=%d"
    (match s.status with
     | Milp.Branch_bound.Feasible -> "feasible(limit)"
     | st -> Milp.Branch_bound.status_name st)
    s.time_s s.rounds s.nodes s.c6_constraints s.milp_vars s.milp_constraints
    Fmt.(option (fun ppf g -> pf ppf " gap=%.1f%%" (100.0 *. g)))
    s.gap
    Fmt.(option (fun ppf b -> pf ppf " bound=%g" b))
    s.best_bound lp.Milp.Branch_bound.lp_pivots lp.Milp.Branch_bound.lp_dual_pivots
    lp.Milp.Branch_bound.lp_pricing_scanned
    lp.Milp.Branch_bound.lp_pricing_refreshes lp.Milp.Branch_bound.lp_time_s
    lp.Milp.Branch_bound.lp_warm_hits lp.Milp.Branch_bound.lp_warm_misses
    lp.Milp.Branch_bound.lp_dual_pivots_saved
    lp.Milp.Branch_bound.lp_basis_evictions
    lp.Milp.Branch_bound.presolve_rounds
    lp.Milp.Branch_bound.presolve_rows_dropped
    lp.Milp.Branch_bound.presolve_bounds_tightened
