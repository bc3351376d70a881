open Let_sem
open Mem_layout

(* Solver driver: branch-and-bound over the formulation, with Constraint 6
   generated lazily — solve, check every pattern's projected transfers for
   contiguity under the decoded allocation, add the violated Constraint 6
   blocks, re-solve. The optimum is unchanged w.r.t. the full formulation
   (cuts are only added when violated); small instances can force the full
   model upfront with [options.full_c6] (compared in an ablation bench).
   Each round is one sequential best-first search at [jobs = 1], or one
   [Parallel.Portfolio] race over [jobs] domains. Short of a conclusive
   answer, a round ends only at its deadline, node limit or LP iteration
   cap, or at the [interrupt_after_nodes] test hook. *)

let src = Logs.Src.create "letdma.solve" ~doc:"lazy MILP solver driver"

module Log = (val Logs.src_log src : Logs.LOG)

module Checkpoint = Resilience.Checkpoint
module Retry = Resilience.Retry

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
  x : float array option; (* the accepted raw MILP assignment *)
  certificate : (Certify.t, Certify.violation list) Stdlib.result option;
      (* independent re-verification of [solution]; [None] iff no solution *)
  stats : stats;
  instance : Formulation.instance;
}

(* One branch-and-bound round: sequential best-first search at
   [jobs <= 1], else a portfolio race over a pool of [jobs] domains.
   [stop_after_nodes] interrupts the sequential search after that many
   explored nodes — the controlled-interrupt half of the chaos gate
   (checkpoint, kill, resume). Checkpoint/resume arguments are
   sequential-only; [ck] bundles them as (writer, every, resume). *)
let bb_solve ~jobs ~presolve ?root_basis ?basis_out ?basis_pool ?pricing
    ?max_lp_iters ?stop_after_nodes ?ck ~deadline ~node_limit ?incumbent p =
  if jobs > 1 then
    (* portfolio workers each own a private basis pool; cross-solve basis
       chaining is a sequential-only feature (no sharing across domains) *)
    let r =
      Parallel.Portfolio.solve ~jobs ~deadline ~node_limit ?incumbent
        ~presolve p
    in
    r.Parallel.Portfolio.solution
  else
    let hooks =
      match stop_after_nodes with
      | None -> Milp.Branch_bound.no_hooks
      | Some limit ->
        let seen = ref 0 in
        {
          Milp.Branch_bound.no_hooks with
          should_stop = (fun () -> !seen >= limit);
          on_node = (fun ~node:_ ~depth:_ ~bound:_ ~pivots:_ -> incr seen);
        }
    in
    let hooks = Obs.Solver_hooks.wrap hooks in
    let on_checkpoint, checkpoint_every, resume =
      match ck with
      | Some (f, every, resume) -> (Some f, every, resume)
      | None -> (None, 0, None)
    in
    Milp.Branch_bound.solve ~deadline ~node_limit ?incumbent ~hooks ~presolve
      ?root_basis ?basis_out ?basis_pool ?pricing ?max_lp_iters
      ~checkpoint_every ?on_checkpoint ?resume p

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

let solve ?(options = Formulation.default_options) ?(time_limit_s = 60.0)
    ?deadline_s ?(node_limit = 200_000) ?(jobs = 1) ?(presolve = true) ?warm
    ?root_basis ?basis_out ?basis_pool ?pricing ?max_lp_iters
    ?checkpoint_file ?(checkpoint_every = 64) ?resume ?interrupt_after_nodes
    objective app groups ~gamma =
  let t0 = Milp.Clock.now () in
  (* One absolute monotonic deadline shared by every lazy round (and, via
     [deadline_s], by every rung of a degradation ladder): k rounds can
     never consume ~k times the budget. *)
  let deadline = match deadline_s with Some d -> d | None -> t0 +. time_limit_s in
  let inst = Formulation.make ~options objective app groups ~gamma in
  Log.info (fun f -> f "built %s model: %s"
               (Formulation.objective_name objective)
               (Formulation.stats_string inst));
  (* Checkpoint/resume is a sequential-only feature: a portfolio race has
     no single trajectory to serialize. *)
  let durable = checkpoint_file <> None || resume <> None in
  if durable && jobs > 1 then
    invalid_arg "Solve.solve: checkpoint/resume requires jobs = 1";
  if interrupt_after_nodes <> None && jobs > 1 then
    invalid_arg "Solve.solve: interrupt_after_nodes requires jobs = 1";
  let fp = if durable then Checkpoint.fingerprint inst.Formulation.problem
    else "" in
  (* Validate a resume checkpoint against the model. *)
  let resume =
    Option.map
      (fun (ck : Checkpoint.t) ->
        if ck.Checkpoint.ck_fingerprint <> fp then
          invalid_arg
            (Fmt.str
               "Solve.solve: checkpoint fingerprint %s does not match the \
                model (%s) — different workload, objective, options or a \
                later lazy round"
               ck.Checkpoint.ck_fingerprint fp);
        ck.Checkpoint.ck_state)
      resume
  in
  (* Writer: wrap each solver snapshot in a versioned file. Only round 1
     checkpoints are written — later lazy rounds solve a model grown by
     Constraint-6 cuts that a fresh process cannot reproduce without
     replaying the earlier rounds, so their fingerprint would never match
     on load. (Nearly all instances finish in round 1; see EXPERIMENTS.) *)
  let write_state state =
    match checkpoint_file with
    | None -> ()
    | Some file ->
      let meta = [ ("objective", Formulation.objective_name objective) ] in
      (match Checkpoint.save file (Checkpoint.make ~meta ~fingerprint:fp state)
       with
       | Ok () -> ()
       | Error m -> Log.err (fun f -> f "checkpoint write failed: %s" m))
  in
  (* The warm start is re-encoded at every round: lazy Constraint-6
     generation appends variables (the LG conjunctions), so a vector from
     an earlier round would no longer match the problem. *)
  let encode_warm () =
    match warm with
    | None -> None
    | Some sol ->
      (match Formulation.encode inst sol with
       | Some x ->
         (match Milp.Problem.check_solution inst.Formulation.problem x with
          | [] -> Some x
          | violated ->
            Log.debug (fun f ->
                f "warm start rejected (%d violations, e.g. %s)"
                  (List.length violated)
                  (match violated with v :: _ -> v | [] -> "-"));
            None)
       | None -> None)
  in
  let c6_total = ref 0 in
  let nodes_total = ref 0 in
  let lp_total = ref Milp.Branch_bound.lp_zero in
  let rec loop round =
    let remaining = Milp.Clock.remaining ~deadline in
    if remaining <= 0.5 || round > max_rounds then
      (None, Milp.Branch_bound.Unknown, None, round - 1)
    else begin
      let ck =
        if (not durable) || round > 1 then None
        else Some (write_state, checkpoint_every, resume)
      in
      let bb =
        Obs.span ~cat:"solver" "round" ~fields:[ ("round", Obs.Int round) ]
        @@ fun () ->
        bb_solve ~jobs ~presolve ?root_basis ?basis_out ?basis_pool
          ?pricing ?max_lp_iters ?stop_after_nodes:interrupt_after_nodes ?ck
          ~deadline ~node_limit
          ?incumbent:(encode_warm ()) inst.Formulation.problem
      in
      nodes_total := !nodes_total + bb.Milp.Branch_bound.stats.Milp.Branch_bound.nodes;
      lp_total :=
        Milp.Branch_bound.lp_add !lp_total
          bb.Milp.Branch_bound.stats.Milp.Branch_bound.lp;
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
  (* A conclusive finish makes the checkpoint stale (resuming it would
     re-prove what is already proven): remove it so an operator loop
     "resume while a checkpoint exists" terminates. *)
  (match (checkpoint_file, status) with
   | ( Some file,
       ( Milp.Branch_bound.Optimal | Milp.Branch_bound.Infeasible
       | Milp.Branch_bound.Unbounded ) )
     when Sys.file_exists file -> (
     try
       Sys.remove file;
       Log.info (fun f -> f "solve conclusive: checkpoint %s removed" file)
     with Sys_error _ -> ())
   | _ -> ());
  let solution = Option.map fst accepted in
  let x = Option.map snd accepted in
  (* independent certification of accepted solutions: the decoded
     configuration is re-verified from first principles, including the raw
     assignment against every MILP row *)
  let certificate =
    match accepted with
    | None -> None
    | Some (sol, x) ->
      let source =
        match status with
        | Milp.Branch_bound.Optimal -> Certify.Milp_optimal
        | _ -> Certify.Milp_incumbent
      in
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

(* Supervised solve: wrap {!solve} in [Resilience.Retry]'s escalation
   ladder. An attempt is retried when it ends inconclusively with no
   solution (status [Unknown] — iteration-limit interrupts land here) or
   when the accepted solution fails independent certification (numerical
   trouble); escalations loosen pricing to Dantzig, disable the
   warm-basis pool and presolve, and scale [max_lp_iters]. When a
   checkpoint file is configured, retries resume from the latest
   checkpoint instead of restarting — with the serialized basis pool
   dropped if the escalation rung disables warm starts. *)
let solve_supervised ?policy ?options ?(time_limit_s = 60.0) ?deadline_s
    ?node_limit ?(presolve = true) ?warm ?basis_pool ?pricing ?max_lp_iters
    ?checkpoint_file ?checkpoint_every ?resume objective app groups ~gamma =
  let deadline =
    match deadline_s with
    | Some d -> d
    | None -> Milp.Clock.now () +. time_limit_s
  in
  let attempt (esc : Retry.escalation) =
    let pricing =
      if esc.Retry.loosen_pricing then Some Milp.Simplex_core.Dantzig
      else pricing
    in
    let basis_pool = if esc.Retry.disable_warm then Some 0 else basis_pool in
    let presolve = presolve && not esc.Retry.disable_presolve in
    let max_lp_iters =
      Option.map (fun m -> m * esc.Retry.iter_factor) max_lp_iters
    in
    (* Later attempts continue from the latest checkpoint when one is on
       disk; a fresh attempt starts over otherwise. *)
    let resume =
      if esc.Retry.attempt = 0 then resume
      else
        match checkpoint_file with
        | Some file when Sys.file_exists file -> (
          match Checkpoint.load file with
          | Ok ck ->
            if not esc.Retry.disable_warm then Some ck
            else
              let bf = ck.Checkpoint.ck_state in
              Some
                {
                  ck with
                  Checkpoint.ck_state =
                    { bf with Milp.Branch_bound.ck_pool = [] };
                }
          | Error m ->
            Log.warn (fun f ->
                f "retry: checkpoint unreadable (%s); restarting" m);
            resume)
        | Some _ | None -> resume
    in
    solve ?options ~deadline_s:deadline ?node_limit ~jobs:1 ~presolve ?warm
      ?basis_pool ?pricing ?max_lp_iters ?checkpoint_file ?checkpoint_every
      ?resume objective app groups ~gamma
  in
  let classify (r : result) =
    match (r.stats.status, r.solution, r.certificate) with
    | Milp.Branch_bound.Unknown, None, _ -> `Retry "no solution (unknown)"
    | _, Some _, Some (Error _) -> `Retry "certification failed"
    | _ -> `Ok
  in
  Retry.run ?policy ~deadline ~classify attempt

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
