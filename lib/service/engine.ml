(* Batch execution: QoS planning, fair-deadline dispatch over the
   domain pool, and the fingerprint-keyed warm cache. *)

let src = Logs.Src.create "service.engine" ~doc:"solver service engine"

module Log = (val Logs.src_log src : Logs.LOG)

(* Cached payload of one solved model: the solution's response fields
   (replayed byte-for-byte on a hit) and the solved plan (the MIP start
   for perturbed siblings). *)
type payload = {
  core : (string * Protocol.value) list;
  plan : Letdma.Solution.t;
}

type t = {
  pool : Parallel.Pool.t;
  cache : payload Cache.t;
  started_at : float;
  m : Mutex.t;
  mutable requests : int;
  mutable solved : int;
  mutable errors : int;
  mutable shed : int;
  mutable batches : int;
  mutable max_batch : int;
}

let create ?jobs ?(cache_capacity = 64) () =
  {
    pool = Parallel.Pool.create ?jobs ();
    cache = Cache.create ~capacity:cache_capacity;
    started_at = Milp.Clock.now ();
    m = Mutex.create ();
    requests = 0;
    solved = 0;
    errors = 0;
    shed = 0;
    batches = 0;
    max_batch = 0;
  }

let cache_stats t = Cache.stats t.cache

let shutdown t = Parallel.Pool.shutdown t.pool

let count t f = Mutex.protect t.m (fun () -> f t)

(* The cache family deliberately omits [alpha] (and the QoS fields):
   two requests differing only in alpha denote perturbed variants of
   one model family, and that is exactly the pair the warm-seed path
   wants to connect. *)
let family_key (s : Protocol.solve) =
  let workload, _ =
    List.find (fun (_, k) -> k = s.Protocol.workload) Workload.kinds
  in
  Printf.sprintf "%s|%d|%d|%s" workload s.Protocol.seed
    s.Protocol.labels_per_edge
    (Letdma.Formulation.objective_name s.Protocol.objective)

let error_response t ~id fmt =
  Fmt.kstr
    (fun m ->
      count t (fun t -> t.errors <- t.errors + 1);
      Protocol.error_line ~id m)
    fmt

(* ok-response layout: the varying per-request fields (cache verdict,
   work done, wall time) come first; the cached, byte-stable solution
   fields ([core], starting with "tier") come last, so a replayed hit
   is literally the same suffix. *)
let ok_response ~id ~klass ~cache ~pivots ~nodes ~t0 core =
  Protocol.render ~id ~status:"ok"
    ([
       ("cache", Protocol.S cache);
       ("class", Protocol.S (Qos.klass_name klass));
       ("pivots", Protocol.I pivots);
       ("nodes", Protocol.I nodes);
       ("time_s", Protocol.F (Milp.Clock.now () -. t0));
     ]
    @ core)

(* --- the MILP tier (cache-aware) ------------------------------------- *)

let solve_milp t ~id ~deadline ~t0 (s : Protocol.solve) app groups gamma =
  let inst = Letdma.Formulation.make s.Protocol.objective app groups ~gamma in
  let fp = Resilience.Checkpoint.fingerprint inst.Letdma.Formulation.problem in
  let family = family_key s in
  match Cache.find t.cache fp with
  | Some payload ->
    (* exact repeat: replay the stored solution fields byte-for-byte *)
    count t (fun t -> t.solved <- t.solved + 1);
    ok_response ~id ~klass:s.Protocol.klass ~cache:"hit" ~pivots:0 ~nodes:0
      ~t0 payload.core
  | None ->
    (* a perturbed repeat starts from its sibling's plan, anything else
       from [Solve]'s heuristic start; [Solve] checks a sibling's plan
       against this model's rows and starts from the heuristic plan if
       it fails them *)
    let warm =
      Option.map (fun (_, sibling) -> sibling.plan)
        (Cache.find_family t.cache ~family)
    in
    let r =
      Letdma.Solve.solve ~deadline_s:deadline ?warm s.Protocol.objective app
        groups ~gamma
    in
    let st = r.Letdma.Solve.stats in
    (match (r.Letdma.Solve.solution, r.Letdma.Solve.x) with
    | Some sol, Some x ->
      let _, e =
        Milp.Problem.objective
          r.Letdma.Solve.instance.Letdma.Formulation.problem
      in
      let obj = Milp.Linexpr.eval e x in
      let certified =
        match r.Letdma.Solve.certificate with Some (Ok _) -> true | _ -> false
      in
      let core =
        [
          ("tier", Protocol.S "milp");
          ( "solver",
            Protocol.S (Milp.Branch_bound.status_name st.Letdma.Solve.status) );
          ("objective", Protocol.F obj);
          ("transfers", Protocol.I (Letdma.Solution.num_transfers sol));
          ("certified", Protocol.B certified);
        ]
      in
      Cache.add t.cache ~fingerprint:fp ~family { core; plan = sol };
      count t (fun t -> t.solved <- t.solved + 1);
      ok_response ~id ~klass:s.Protocol.klass
        ~cache:(if warm <> None then "warm" else "miss")
        ~pivots:st.Letdma.Solve.lp.Milp.Branch_bound.lp_pivots
        ~nodes:st.Letdma.Solve.nodes ~t0 core
    | _ ->
      error_response t ~id "no solution (%s)"
        (Milp.Branch_bound.status_name st.Letdma.Solve.status))

(* --- shed tiers ------------------------------------------------------ *)

(* A shed request gets the ladder's fallback plan for its tier. *)
let solve_fallback t ~id ~klass ~tier ~t0 app groups gamma =
  let name = Letdma.Pipeline.rung_name tier in
  match Letdma.Pipeline.fallback tier app groups ~gamma with
  | None -> error_response t ~id "%s produced no plan" name
  | Some (sol, verdict) ->
    let core =
      [
        ("tier", Protocol.S name);
        ("solver", Protocol.S "-");
        ("transfers", Protocol.I (Letdma.Solution.num_transfers sol));
        ("certified", Protocol.B (Result.is_ok verdict));
      ]
    in
    count t (fun t -> t.solved <- t.solved + 1);
    ok_response ~id ~klass ~cache:"none" ~pivots:0 ~nodes:0 ~t0 core

(* --- one solve request ----------------------------------------------- *)

let handle_solve t ~arrival ~load ~deadline ~id (s : Protocol.solve) =
  let t0 = Milp.Clock.now () in
  (* the request runs under the tighter of its fair batch share and its
     own absolute deadline *)
  let own = arrival +. s.Protocol.deadline_s in
  let d = Float.min deadline own in
  let budget = d -. t0 in
  if budget <= 0.0 then
    error_response t ~id
      "deadline expired before solving started (class %s)"
      (Qos.klass_name s.Protocol.klass)
  else begin
    let tier = Qos.plan s.Protocol.klass ~load ~budget_s:budget in
    if tier <> Letdma.Pipeline.Milp then begin
      count t (fun t -> t.shed <- t.shed + 1);
      Obs.point ~cat:"service" "shed"
        [
          ("class", Obs.Str (Qos.klass_name s.Protocol.klass));
          ("tier", Obs.Str (Letdma.Pipeline.rung_name tier));
          ("load", Obs.Float load);
        ]
    end;
    let app =
      Workload.make ~labels_per_edge:s.Protocol.labels_per_edge
        ~seed:s.Protocol.seed s.Protocol.workload
    in
    match Letdma.Experiment.prepare app ~alpha:s.Protocol.alpha with
    | Error e ->
      error_response t ~id "%s" (Letdma.Experiment.error_to_string e)
    | Ok (groups, gamma) -> (
      match tier with
      | Letdma.Pipeline.Milp ->
        solve_milp t ~id ~deadline:d ~t0 s app groups gamma
      | Letdma.Pipeline.Heuristic | Letdma.Pipeline.Baseline ->
        solve_fallback t ~id ~klass:s.Protocol.klass ~tier ~t0 app groups
          gamma)
  end

(* --- stats op -------------------------------------------------------- *)

let handle_stats t ~id =
  let cs = Cache.stats t.cache in
  let requests, solved, errors, shed, batches, max_batch =
    Mutex.protect t.m (fun () ->
        (t.requests, t.solved, t.errors, t.shed, t.batches, t.max_batch))
  in
  Protocol.render ~id ~status:"ok"
    [
      ("op", Protocol.S "stats");
      ("uptime_s", Protocol.F (Milp.Clock.now () -. t.started_at));
      ("pool_jobs", Protocol.I (Parallel.Pool.jobs t.pool));
      (* no worker domain dies before shutdown; the member stays for
         readers that report it *)
      ("pool_crashes", Protocol.I 0);
      ("requests", Protocol.I requests);
      ("solved", Protocol.I solved);
      ("errors", Protocol.I errors);
      ("shed", Protocol.I shed);
      ("batches", Protocol.I batches);
      ("max_batch", Protocol.I max_batch);
      ("cache_size", Protocol.I cs.Cache.size);
      ("cache_capacity", Protocol.I cs.Cache.capacity);
      ("cache_hits", Protocol.I cs.Cache.hits);
      ("cache_misses", Protocol.I cs.Cache.misses);
      ("cache_warm_seeds", Protocol.I cs.Cache.warm_seeds);
      ("cache_evictions", Protocol.I cs.Cache.evictions);
      ("obs_enabled", Protocol.B (Obs.enabled ()));
      ("obs_events", Protocol.I (Obs.lines_written ()));
    ]

(* --- batch dispatch -------------------------------------------------- *)

let handle t ~arrival ~load ~deadline item =
  match item with
  | Error { Protocol.err_id; message } ->
    error_response t ~id:err_id "invalid request: %s" message
  | Ok { Protocol.id; op = Protocol.Stats } -> handle_stats t ~id
  | Ok { Protocol.id; op = Protocol.Solve s } ->
    handle_solve t ~arrival ~load ~deadline ~id s

let id_of = function
  | Ok r -> r.Protocol.id
  | Error e -> e.Protocol.err_id

let process t items =
  let arrival = Milp.Clock.now () in
  let n = List.length items in
  if n = 0 then []
  else begin
    let solves =
      List.length
        (List.filter
           (function Ok { Protocol.op = Protocol.Solve _; _ } -> true
                   | _ -> false)
           items)
    in
    let load =
      float_of_int solves /. float_of_int (Parallel.Pool.jobs t.pool)
    in
    count t (fun t ->
        t.requests <- t.requests + n;
        t.batches <- t.batches + 1;
        t.max_batch <- max t.max_batch n);
    Obs.point ~cat:"service" "batch"
      [ ("size", Obs.Int n); ("solves", Obs.Int solves);
        ("load", Obs.Float load) ];
    Log.debug (fun f -> f "batch: %d requests (%d solves, load %.2f)" n
                  solves load);
    (* one shared absolute deadline for the whole batch: the latest
       per-request deadline; Sweep carves it into fair per-item shares *)
    let global =
      List.fold_left
        (fun acc item ->
          match item with
          | Ok { Protocol.op = Protocol.Solve s; _ } ->
            let d = arrival +. s.Protocol.deadline_s in
            Some (match acc with None -> d | Some a -> Float.max a d)
          | _ -> acc)
        None items
    in
    let outcomes =
      Parallel.Sweep.map ~pool:t.pool ?deadline:global
        (fun ~deadline item -> handle t ~arrival ~load ~deadline item)
        items
    in
    List.map
      (fun (o : _ Parallel.Sweep.outcome) ->
        match o.Parallel.Sweep.result with
        | Ok line -> line
        | Error e ->
          error_response t ~id:(id_of o.Parallel.Sweep.item)
            "internal error: %s" (Printexc.to_string e))
      outcomes
  end
