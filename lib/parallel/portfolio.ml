(* Portfolio racing of diversified branch-and-bound configurations.

   Cooperation is a single lock-free cell holding the best known
   (objective, solution) pair: workers publish improvements with a CAS
   loop through Branch_bound.hooks.on_incumbent and poll it at every
   node through get_incumbent. The cell stores immutable pairs — arrays
   are copied on publish (by the solver's incumbent bookkeeping) and on
   import (by the solver), so no array is ever written by two domains.

   The input Problem.t is shared read-only; see portfolio.mli for the
   confinement contract. *)

let src = Logs.Src.create "parallel.portfolio" ~doc:"MILP portfolio racing"

module Log = (val Logs.src_log src : Logs.LOG)

type config = {
  name : string;
  branch_seed : int;
  use_warm : bool;
  pricing : Milp.Simplex.pricing;
}

let make_config ?(pricing = Milp.Simplex.Devex) i use_warm =
  {
    name =
      Fmt.str "s%d-%s-%s" i
        (if use_warm then "warm" else "cold")
        (Milp.Simplex.pricing_name pricing);
    branch_seed = i;
    use_warm;
    pricing;
  }

(* Every worker branches with its own seed; the first pair starts warm
   (sprint from the heuristic incumbent), the second cold (unbiased
   search); beyond four, alternate warm/cold. Devex pricing dominates the
   panel; every fourth worker runs Dantzig so a pathology of the devex
   trajectory cannot stall the whole portfolio. *)
let default_configs ~jobs =
  List.init (max 1 jobs) (fun i ->
      let use_warm = if i < 4 then i < 2 else i mod 2 = 0 in
      let pricing =
        if i mod 4 = 3 then Milp.Simplex.Dantzig else Milp.Simplex.Devex
      in
      make_config ~pricing i use_warm)

type report = {
  config : config;
  status : Milp.Branch_bound.status;
  obj : float option;
  nodes : int;
  time_s : float;
  foreign_prunes : int;
  imported : int;
  published : int;
  crashed : bool;
}

type stats = {
  winner : int option;
  reports : report list;
  incumbents_published : int;
  incumbents_imported : int;
  foreign_prunes : int;
  time_s : float;
  jobs : int;
  deterministic : bool;
  worker_crashes : int;
}

type result = { solution : Milp.Branch_bound.solution; stats : stats }

let pp_stats ppf s =
  Fmt.pf ppf
    "jobs=%d%s%s time=%.2fs winner=%s exchanges=%d published/%d imported \
     foreign-prunes=%d@ [%a]"
    s.jobs
    (if s.deterministic then " (deterministic)" else "")
    (if s.worker_crashes > 0 then Fmt.str " crashes=%d" s.worker_crashes
     else "")
    s.time_s
    (match s.winner with
     | Some i -> (List.nth s.reports i).config.name
     | None -> "-")
    s.incumbents_published s.incumbents_imported s.foreign_prunes
    Fmt.(
      list ~sep:(any ";@ ") (fun ppf r ->
          pf ppf "%s:%s%a" r.config.name
            (Milp.Branch_bound.status_name r.status)
            (option (fun ppf o -> pf ppf "(%g)" o))
            r.obj))
    s.reports

let conclusive = function
  | Milp.Branch_bound.Optimal | Milp.Branch_bound.Infeasible
  | Milp.Branch_bound.Unbounded ->
    true
  | Milp.Branch_bound.Feasible | Milp.Branch_bound.Unknown -> false

let solve ?pool ?jobs ?(deterministic = false) ?deadline
    ?(time_limit_s = 60.0) ?node_limit ?incumbent ?(presolve = true) ?chaos
    (p0 : Milp.Problem.t) : result =
  let t0 = Milp.Clock.now () in
  let deadline =
    match deadline with Some d -> d | None -> t0 +. time_limit_s
  in
  let with_p f =
    match pool with Some pl -> f pl | None -> Pool.with_pool ?jobs f
  in
  with_p @@ fun pl ->
  let jobs = Pool.jobs pl in
  (* deterministic mode pins the panel width so the jobs count can never
     change the answer *)
  let configs = default_configs ~jobs:(if deterministic then 4 else jobs) in
  let dir, obj_expr = Milp.Problem.objective p0 in
  let sense =
    match dir with Milp.Problem.Minimize -> 1.0 | Milp.Problem.Maximize -> -1.0
  in
  (* Presolve once at the root and hand every worker the reduced problem
     (same variable ids, unchanged feasible set) — running it per worker
     would only duplicate deterministic work. Workers are then launched
     with [~presolve:false]; the root reductions are re-attached to the
     winning solution's stats below. *)
  let presolve_outcome =
    if presolve then Milp.Presolve.run p0
    else (Milp.Presolve.Reduced p0, Milp.Branch_bound.no_presolve_stats)
  in
  match presolve_outcome with
  | Milp.Presolve.Infeasible row, pre ->
    Log.info (fun f -> f "portfolio: presolve proved infeasibility (%s)" row);
    let lp =
      Milp.Branch_bound.lp_of_counters (Milp.Simplex_core.fresh_counters ())
        ~lp_time_s:0.0 ~presolve:pre
    in
    let time_s = Milp.Clock.now () -. t0 in
    {
      solution =
        {
          Milp.Branch_bound.status = Milp.Branch_bound.Infeasible;
          obj = None;
          x = None;
          stats =
            {
              Milp.Branch_bound.nodes = 0;
              simplex_solves = 0;
              time_s;
              best_bound = (if sense > 0.0 then infinity else neg_infinity);
              gap = None;
              foreign_prunes = 0;
              lp;
            };
        };
      stats =
        {
          winner = None;
          reports = [];
          incumbents_published = 0;
          incumbents_imported = 0;
          foreign_prunes = 0;
          time_s;
          jobs;
          deterministic;
          worker_crashes = 0;
        };
    }
  | Milp.Presolve.Reduced p, pre ->
  let cell : (float * float array) option Atomic.t = Atomic.make None in
  let published = Atomic.make 0 in
  let imported = Atomic.make 0 in
  (* pre-seed the shared cell so every worker starts from the same
     cutoff; the warm incumbent is validated first — a portfolio must
     not launder an infeasible vector into every worker *)
  (match incumbent with
   | Some x
     when (not deterministic) && Milp.Problem.check_solution ~eps:1.0e-6 p x = []
     ->
     Atomic.set cell (Some (Milp.Linexpr.eval obj_expr x, Array.copy x));
     Atomic.incr published
   | Some _ | None -> ());
  let token = Pool.Token.create () in
  let winner = Atomic.make (-1) in
  let run_one i cfg =
    (* fault injection: a [Pool.Poison] raised here escapes the pool's
       exception funnel and kills this worker's domain, exercising the
       supervisor's respawn + re-enqueue path *)
    (match chaos with Some inject -> inject i | None -> ());
    Obs.span ~cat:"portfolio" "worker"
      ~fields:
        [
          ("name", Obs.Str cfg.name);
          ("seed", Obs.Int cfg.branch_seed);
          ("warm", Obs.Bool cfg.use_warm);
          ("pricing", Obs.Str (Milp.Simplex.pricing_name cfg.pricing));
        ]
    @@ fun () ->
    let local_imported = ref 0 and local_published = ref 0 in
    let last = ref None in
    let hooks =
      if deterministic then Milp.Branch_bound.no_hooks
      else
        {
          Milp.Branch_bound.should_stop =
            (fun () -> Pool.Token.cancelled token);
          on_incumbent =
            (fun ~obj x ->
              let rec publish () =
                let cur = Atomic.get cell in
                let better =
                  match cur with
                  | None -> true
                  | Some (o, _) -> sense *. obj < (sense *. o) -. 1.0e-9
                in
                if better then begin
                  let next = Some (obj, x) in
                  if Atomic.compare_and_set cell cur next then begin
                    last := next;
                    incr local_published;
                    Atomic.incr published;
                    Obs.point ~cat:"portfolio" "publish"
                      [ ("worker", Obs.Str cfg.name); ("obj", Obs.Float obj) ]
                  end
                  else publish ()
                end
              in
              publish ());
          get_incumbent =
            (fun () ->
              let cur = Atomic.get cell in
              if cur == !last then None
              else begin
                last := cur;
                match cur with
                | None -> None
                | Some _ as found ->
                  incr local_imported;
                  Atomic.incr imported;
                  (match found with
                   | Some (o, _) ->
                     Obs.point ~cat:"portfolio" "import"
                       [ ("worker", Obs.Str cfg.name); ("obj", Obs.Float o) ]
                   | None -> ());
                  found
              end);
          on_node = Milp.Branch_bound.no_hooks.Milp.Branch_bound.on_node;
          on_basis = Milp.Branch_bound.no_hooks.Milp.Branch_bound.on_basis;
        }
    in
    let hooks = Obs.Solver_hooks.wrap ~worker:cfg.name hooks in
    let inc = if cfg.use_warm then incumbent else None in
    let sol =
      Milp.Branch_bound.solve ~deadline ?node_limit ?incumbent:inc
        ~branch_seed:cfg.branch_seed ~hooks ~pricing:cfg.pricing
        ~presolve:false p
    in
    if (not deterministic) && conclusive sol.Milp.Branch_bound.status then begin
      if Atomic.compare_and_set winner (-1) i then begin
        let status =
          Milp.Branch_bound.status_name sol.Milp.Branch_bound.status
        in
        Log.info (fun f ->
            f "%s finished conclusively (%s); cancelling the rest" cfg.name
              status);
        Obs.point ~cat:"portfolio" "cancel"
          [ ("winner", Obs.Str cfg.name); ("status", Obs.Str status) ]
      end;
      Pool.Token.cancel token
    end;
    (sol, !local_imported, !local_published)
  in
  let crashes0 = Pool.crashes pl in
  (* one crash retry per worker: a transiently poisoned domain re-runs
     its config after the supervisor respawns capacity; a deterministic
     crasher fails over to [Error Worker_crashed] on its second death *)
  let futures =
    List.mapi
      (fun i cfg -> Pool.async ~retry_on_crash:1 pl (fun () -> run_one i cfg))
      configs
  in
  let raw = List.map Pool.await futures in
  let worker_crashes = Pool.crashes pl - crashes0 in
  let outcomes =
    List.map2
      (fun cfg r ->
        match r with
        | Ok (sol, imp, pub) -> (cfg, Some sol, imp, pub)
        | Error e ->
          Log.err (fun f ->
              f "worker %s died: %s" cfg.name (Printexc.to_string e));
          (cfg, None, 0, 0))
      configs raw
  in
  (* every worker crashed: funnel the first exception out *)
  if List.for_all (fun (_, s, _, _) -> s = None) outcomes then begin
    match List.find_map (function Error e -> Some e | Ok _ -> None) raw with
    | Some e -> raise e
    | None -> assert false
  end;
  let reports =
    List.map
      (fun (cfg, sol_opt, imp, pub) ->
        match sol_opt with
        | Some (s : Milp.Branch_bound.solution) ->
          {
            config = cfg;
            status = s.status;
            obj = s.obj;
            nodes = s.stats.Milp.Branch_bound.nodes;
            time_s = s.stats.Milp.Branch_bound.time_s;
            foreign_prunes = s.stats.Milp.Branch_bound.foreign_prunes;
            imported = imp;
            published = pub;
            crashed = false;
          }
        | None ->
          {
            config = cfg;
            status = Milp.Branch_bound.Unknown;
            obj = None;
            nodes = 0;
            time_s = 0.0;
            foreign_prunes = 0;
            imported = imp;
            published = pub;
            crashed = true;
          })
      outcomes
  in
  let sols =
    List.mapi (fun i (_, s, _, _) -> (i, s)) outcomes
    |> List.filter_map (fun (i, s) -> Option.map (fun s -> (i, s)) s)
  in
  let best_incumbent () =
    List.fold_left
      (fun acc (i, (s : Milp.Branch_bound.solution)) ->
        match (s.obj, acc) with
        | None, _ -> acc
        | Some o, None -> Some (i, s, sense *. o)
        | Some o, Some (_, _, best) when sense *. o < best -. 1.0e-12 ->
          Some (i, s, sense *. o)
        | Some _, Some _ -> acc)
      None sols
  in
  let most_informative () =
    let pick st =
      List.find_opt
        (fun (_, (s : Milp.Branch_bound.solution)) -> s.status = st)
        sols
    in
    match pick Milp.Branch_bound.Infeasible with
    | Some is -> is
    | None -> (
      match pick Milp.Branch_bound.Unbounded with
      | Some ub -> ub
      | None -> List.hd sols)
  in
  let chosen_i, chosen =
    if deterministic then
      match
        List.find_opt
          (fun (_, (s : Milp.Branch_bound.solution)) ->
            s.status = Milp.Branch_bound.Optimal)
          sols
      with
      | Some (i, s) -> (i, s)
      | None -> (
        match best_incumbent () with
        | Some (i, s, _) -> (i, s)
        | None -> most_informative ())
    else
      match Atomic.get winner with
      | w when w >= 0 -> (
        match List.assoc_opt w sols with
        | Some s -> (w, s)
        | None -> most_informative () (* winner crashed on return path *))
      | _ -> (
        match best_incumbent () with
        | Some (i, s, _) -> (i, s)
        | None -> most_informative ())
  in
  let stats =
    {
      winner = Some chosen_i;
      reports;
      incumbents_published = Atomic.get published;
      incumbents_imported = Atomic.get imported;
      foreign_prunes =
        List.fold_left (fun a (r : report) -> a + r.foreign_prunes) 0 reports;
      time_s = Milp.Clock.now () -. t0;
      jobs;
      deterministic;
      worker_crashes;
    }
  in
  Log.info (fun f -> f "portfolio: %a" pp_stats stats);
  (* re-attach the root presolve reductions (workers ran presolve-free) *)
  let chosen =
    {
      chosen with
      Milp.Branch_bound.stats =
        {
          chosen.Milp.Branch_bound.stats with
          Milp.Branch_bound.lp =
            Milp.Branch_bound.lp_add chosen.Milp.Branch_bound.stats.Milp.Branch_bound.lp
              (Milp.Branch_bound.lp_of_counters
                 (Milp.Simplex_core.fresh_counters ())
                 ~lp_time_s:0.0 ~presolve:pre);
        };
    }
  in
  { solution = chosen; stats }
