(* Best-first branch-and-bound for mixed-integer linear programs, on top of
   the LP relaxation solver in {!Simplex}.

   Nodes store only their bound overrides relative to the root, so memory
   stays proportional to tree depth times the frontier size. A
   most-fractional branching rule is used, with a rounding heuristic tried
   at every node to obtain incumbents early. *)

let src = Logs.Src.create "milp.bb" ~doc:"MILP branch and bound"

module Log = (val Logs.src_log src : Logs.LOG)

type status = Optimal | Feasible | Infeasible | Unbounded | Unknown

let status_name = function
  | Optimal -> "optimal"
  | Feasible -> "feasible"
  | Infeasible -> "infeasible"
  | Unbounded -> "unbounded"
  | Unknown -> "unknown"

(* LP-engine work counters aggregated over a whole search, plus the root
   presolve reductions. *)
type lp_stats = {
  lp_pivots : int;
  lp_dual_pivots : int;
  lp_pricing_scanned : int;
  lp_pricing_refreshes : int;
  lp_warm_hits : int;
  lp_warm_misses : int;
  lp_dual_pivots_saved : int;
  lp_basis_evictions : int;
  lp_time_s : float;
  presolve_rounds : int;
  presolve_rows_dropped : int;
  presolve_bounds_tightened : int;
}

let lp_zero =
  {
    lp_pivots = 0;
    lp_dual_pivots = 0;
    lp_pricing_scanned = 0;
    lp_pricing_refreshes = 0;
    lp_warm_hits = 0;
    lp_warm_misses = 0;
    lp_dual_pivots_saved = 0;
    lp_basis_evictions = 0;
    lp_time_s = 0.0;
    presolve_rounds = 0;
    presolve_rows_dropped = 0;
    presolve_bounds_tightened = 0;
  }

let lp_add a b =
  {
    lp_pivots = a.lp_pivots + b.lp_pivots;
    lp_dual_pivots = a.lp_dual_pivots + b.lp_dual_pivots;
    lp_pricing_scanned = a.lp_pricing_scanned + b.lp_pricing_scanned;
    lp_pricing_refreshes = a.lp_pricing_refreshes + b.lp_pricing_refreshes;
    lp_warm_hits = a.lp_warm_hits + b.lp_warm_hits;
    lp_warm_misses = a.lp_warm_misses + b.lp_warm_misses;
    lp_dual_pivots_saved = a.lp_dual_pivots_saved + b.lp_dual_pivots_saved;
    lp_basis_evictions = a.lp_basis_evictions + b.lp_basis_evictions;
    lp_time_s = a.lp_time_s +. b.lp_time_s;
    presolve_rounds = a.presolve_rounds + b.presolve_rounds;
    presolve_rows_dropped = a.presolve_rows_dropped + b.presolve_rows_dropped;
    presolve_bounds_tightened =
      a.presolve_bounds_tightened + b.presolve_bounds_tightened;
  }

let lp_of_counters (c : Simplex_core.counters) ~lp_time_s
    ~(presolve : Presolve.stats) =
  {
    lp_pivots = c.Simplex_core.pivots;
    lp_dual_pivots = c.Simplex_core.dual_pivots;
    lp_pricing_scanned = c.Simplex_core.pricing_scanned;
    lp_pricing_refreshes = c.Simplex_core.pricing_refreshes;
    lp_warm_hits = c.Simplex_core.warm_hits;
    lp_warm_misses = c.Simplex_core.warm_misses;
    lp_dual_pivots_saved = c.Simplex_core.dual_pivots_saved;
    lp_basis_evictions = c.Simplex_core.basis_evictions;
    lp_time_s;
    presolve_rounds = presolve.Presolve.rounds;
    presolve_rows_dropped = presolve.Presolve.rows_dropped;
    presolve_bounds_tightened = presolve.Presolve.bounds_tightened;
  }

let no_presolve_stats =
  { Presolve.rounds = 0; rows_dropped = 0; bounds_tightened = 0 }

type stats = {
  nodes : int;
  simplex_solves : int;
  time_s : float;
  best_bound : float;  (** proven bound on the optimum *)
  gap : float option;  (** (incumbent - bound) / max(1, |incumbent|) *)
  lp : lp_stats;  (** LP-engine work + root presolve reductions *)
}

(* Basis-pool lifecycle notifications, tapped by the observability layer:
   a node's LP reoptimized from its parent's basis (hit), wanted to but
   fell back to a cold solve (miss), or a pool entry was dropped under
   memory pressure (evict). *)
type basis_event = Warm_hit | Warm_miss | Evict

(* Search hooks: cancellation and observability taps. Objectives are in
   the problem's own sense and solution vectors are fresh copies the
   callee may keep. *)
type hooks = {
  should_stop : unit -> bool;
  on_incumbent : obj:float -> float array -> unit;
  on_node : node:int -> depth:int -> bound:float option -> pivots:int -> unit;
  on_basis : node:int -> basis_event -> unit;
}

let no_hooks =
  {
    should_stop = (fun () -> false);
    on_incumbent = (fun ~obj:_ _ -> ());
    on_node = (fun ~node:_ ~depth:_ ~bound:_ ~pivots:_ -> ());
    on_basis = (fun ~node:_ _ -> ());
  }

(* Search tolerances. An LP value within [int_eps] of an integer counts
   as integral, and a new incumbent must beat the cutoff by
   [improve_eps]. *)
let int_eps = 1.0e-6
let improve_eps = 1.0e-9

(* The one prune rule: a node whose bound (minimization sense, lifted to
   the caller's floor) is [b] is kept only if its subtree can still beat
   the cutoff [best]. *)
let keeps ~best b = b < best -. improve_eps

type solution = {
  status : status;
  obj : float option;
  x : float array option;
  stats : stats;
}

type node = {
  overrides : (int * float * float) list; (* (var, lo, hi) from root *)
  depth : int;
  parent : int; (* basis-pool key of the parent's optimal basis; -1 none *)
}

(* Checkpoint: everything the best-first search mutates, captured so a
   later [solve ~resume] continues the exact same trajectory. Frontier
   nodes are kept in pop order ((prio, tie) is a total order), the basis
   pool sorted by node id — both canonical, so capturing a restored
   checkpoint reproduces it field-for-field. *)
type ck_node = {
  ck_prio : float;        (* heap priority: LP bound, minimization sense *)
  ck_node_tie : int;      (* heap insertion tie-breaker *)
  ck_depth : int;
  ck_parent : int;        (* basis-pool key of the parent basis; -1 none *)
  ck_overrides : (int * float * float) list;
}

type checkpoint = {
  ck_nodes : int;
  ck_tie : int;
  ck_simplex_solves : int;
  ck_best : (float * float array) option;
      (* incumbent, objective in the problem's own sense *)
  ck_cold_ref_pivots : int option;
  ck_counters : Simplex_core.counters;
  ck_lp_time_s : float;
  ck_frontier : ck_node list;
  ck_pool : (int * Simplex_core.Basis.t * int * int) list;
      (* (node id, basis, live refcount, LRU tick), sorted by id *)
  ck_pool_tick : int;
}

(* Minimal binary min-heap on (priority, tie, payload). *)
module Heap = struct
  type 'a t = {
    mutable data : (float * int * 'a) array;
    mutable len : int;
  }

  let create () = { data = [||]; len = 0 }

  let less (p1, t1, _) (p2, t2, _) = p1 < p2 || (p1 = p2 && t1 > t2)

  let push h prio tie x =
    if h.len = Array.length h.data then begin
      let cap = max 16 (2 * h.len) in
      let data = Array.make cap (prio, tie, x) in
      Array.blit h.data 0 data 0 h.len;
      h.data <- data
    end;
    h.data.(h.len) <- (prio, tie, x);
    h.len <- h.len + 1;
    let i = ref (h.len - 1) in
    while
      !i > 0
      &&
      let parent = (!i - 1) / 2 in
      less h.data.(!i) h.data.(parent)
    do
      let parent = (!i - 1) / 2 in
      let tmp = h.data.(!i) in
      h.data.(!i) <- h.data.(parent);
      h.data.(parent) <- tmp;
      i := parent
    done

  let pop h =
    if h.len = 0 then None
    else begin
      let top = h.data.(0) in
      h.len <- h.len - 1;
      if h.len > 0 then begin
        h.data.(0) <- h.data.(h.len);
        let i = ref 0 in
        let continue = ref true in
        while !continue do
          let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
          let smallest = ref !i in
          if l < h.len && less h.data.(l) h.data.(!smallest) then smallest := l;
          if r < h.len && less h.data.(r) h.data.(!smallest) then smallest := r;
          if !smallest <> !i then begin
            let tmp = h.data.(!i) in
            h.data.(!i) <- h.data.(!smallest);
            h.data.(!smallest) <- tmp;
            i := !smallest
          end
          else continue := false
        done
      end;
      Some top
    end

  let fold f init h =
    let acc = ref init in
    for i = 0 to h.len - 1 do
      acc := f !acc h.data.(i)
    done;
    !acc
end


(* The shortcut: a checked warm incumbent that no node can beat, because
   every node's bound is at least the caller's [floor] (minimization
   sense), is already optimal. No presolve and no LP run; the check
   against every row is the work this path performs, and its time is
   stamped so per-rung --stats totals agree with the callers' clocks. *)
let floor_shortcut (p : Problem.t) ~sense ~floor incumbent =
  match incumbent with
  | None -> None
  | Some x ->
    let t0 = Clock.now () in
    let _, obj_expr = Problem.objective p in
    let obj = Linexpr.eval obj_expr x in
    if
      keeps ~best:(sense *. obj) floor
      || Problem.check_solution ~eps:1.0e-6 p x <> []
    then None
    else
      Some
        {
          status = Optimal;
          obj = Some obj;
          x = Some (Array.copy x);
          stats =
            {
              nodes = 0;
              simplex_solves = 0;
              time_s = Clock.now () -. t0;
              best_bound = sense *. Float.max floor (sense *. obj);
              gap = Some 0.0;
              lp = lp_zero;
            };
        }

(* [Infeasible] result proven by presolve alone (no search ran). *)
let presolved_infeasible ~sense ~time_s ~(pre : Presolve.stats) row =
  Log.info (fun f -> f "presolve proved infeasibility (row %s)" row);
  {
    status = Infeasible;
    obj = None;
    x = None;
    stats =
      {
        nodes = 0;
        simplex_solves = 0;
        time_s;
        best_bound = (if sense > 0.0 then infinity else neg_infinity);
        gap = None;
        lp =
          lp_of_counters (Simplex_core.fresh_counters ()) ~lp_time_s:0.0
            ~presolve:pre;
      };
  }

let solve ?(time_limit_s = 60.0) ?deadline ?(node_limit = 200_000) ?incumbent
    ?bound ?(hooks = no_hooks) ?(presolve = true)
    ?(basis_pool = 128) ?max_lp_iters
    ?(checkpoint_every = 0) ?on_checkpoint ?resume
    (p0 : Problem.t) : solution =
  let dir0, obj0 = Problem.objective p0 in
  let sense0 =
    match dir0 with Problem.Minimize -> 1.0 | Problem.Maximize -> -1.0
  in
  (* The caller's proven bound in minimization sense: every node's bound
     is at least this floor. A constant objective is its own. *)
  let floor =
    match bound with
    | Some b -> sense0 *. b
    | None when Linexpr.is_constant obj0 -> sense0 *. Linexpr.constant obj0
    | None -> neg_infinity
  in
  match
    if resume = None then floor_shortcut p0 ~sense:sense0 ~floor incumbent
    else None
  with
  | Some early -> early
  | None ->
  let t0 = Clock.now () in
  let deadline = match deadline with Some d -> d | None -> t0 +. time_limit_s in
  (* Root presolve: the reduction keeps every variable (same ids, implied
     tighter bounds) and only drops redundant rows, so the feasible set —
     and hence the entire search — transfers verbatim to the reduced
     problem; solutions need no mapping back. *)
  let presolve_outcome =
    if presolve then begin
      let r, pre = Presolve.run p0 in
      if pre.Presolve.rounds > 0 then
        Log.info (fun f ->
            f "presolve: %d rounds, %d rows dropped, %d bounds tightened"
              pre.Presolve.rounds pre.Presolve.rows_dropped
              pre.Presolve.bounds_tightened);
      (r, pre)
    end
    else (Presolve.Reduced p0, no_presolve_stats)
  in
  match presolve_outcome with
  | Presolve.Infeasible row, pre ->
    presolved_infeasible ~sense:sense0 ~time_s:(Clock.now () -. t0) ~pre row
  | Presolve.Reduced p, pre ->
  let cnt = Simplex_core.fresh_counters () in
  let lp_time = ref 0.0 in
  (* Bounded-memory pool of parent bases, keyed by the exploring node's
     1-based index. Every entry is born with refcount 2 (its two
     children) and dies when both have claimed it; above [basis_pool]
     entries the least-recently-used one is evicted (ties to the smaller
     node id — a total order, so the victim never depends on Hashtbl
     iteration order) and its orphaned children fall back to the cold
     path, counted as misses. [basis_pool = 0] disables basis reuse
     entirely (the cold baseline of the warm-start pivot test). *)
  let pool : (int, Simplex_core.Basis.t * int ref * int ref) Hashtbl.t =
    Hashtbl.create 64
  in
  let pool_size = ref 0 in
  let pool_tick = ref 0 in
  let nodes = ref 0 in
  let pool_evict () =
    let victim =
      Hashtbl.fold
        (fun id (_, _, last) acc ->
          match acc with
          | Some (bid, blast) when !last > blast || (!last = blast && id > bid)
            ->
            acc
          | _ -> Some (id, !last))
        pool None
    in
    match victim with
    | None -> ()
    | Some (id, _) ->
      Hashtbl.remove pool id;
      decr pool_size;
      cnt.Simplex_core.basis_evictions <-
        cnt.Simplex_core.basis_evictions + 1;
      hooks.on_basis ~node:!nodes Evict
  in
  let pool_put id basis =
    if basis_pool > 0 then begin
      while !pool_size >= basis_pool do
        pool_evict ()
      done;
      incr pool_tick;
      Hashtbl.replace pool id (basis, ref 2, ref !pool_tick);
      incr pool_size
    end
  in
  let pool_take id =
    match Hashtbl.find_opt pool id with
    | None -> None
    | Some (basis, refs, last) ->
      incr pool_tick;
      last := !pool_tick;
      decr refs;
      if !refs <= 0 then begin
        Hashtbl.remove pool id;
        decr pool_size
      end;
      Some basis
  in
  let n = Problem.num_vars p in
  let dir, obj_expr = Problem.objective p in
  (* Work in minimization sense internally. *)
  let sense = match dir with Problem.Minimize -> 1.0 | Problem.Maximize -> -1.0 in
  let int_vars =
    let acc = ref [] in
    Problem.iter_vars
      (fun j kind _ ->
        match kind with
        | Problem.Integer | Problem.Binary -> acc := j :: !acc
        | Problem.Continuous -> ())
      p;
    Array.of_list (List.rev !acc)
  in
  let root_lo = Array.make n 0.0 and root_hi = Array.make n 0.0 in
  Problem.iter_vars
    (fun j _ (lo, hi) ->
      root_lo.(j) <- lo;
      root_hi.(j) <- hi)
    p;
  let best_obj = ref infinity (* minimization sense *) in
  let best_x = ref None in
  (* a node's bound: its LP bound, lifted to the caller's floor *)
  let lift b = Float.max b floor in
  let keep b = keeps ~best:!best_obj (lift b) in
  let simplex_solves = ref 0 in
  let consider_incumbent x obj_orig =
    let obj_min = sense *. obj_orig in
    if obj_min < !best_obj -. improve_eps then begin
      best_obj := obj_min;
      let kept = Array.copy x in
      best_x := Some kept;
      hooks.on_incumbent ~obj:obj_orig kept;
      Log.info (fun f -> f "new incumbent: obj=%g (node %d)" obj_orig !nodes)
    end
  in
  let heap = Heap.create () in
  let tie = ref 0 in
  (* reference cost of a from-scratch LP solve (the root's), used to
     estimate the pivots each warm reoptimization avoided *)
  let cold_ref_pivots = ref None in
  (match resume with
   | None ->
     (match incumbent with
      | Some x ->
        if Problem.check_solution ~eps:1.0e-6 p x = [] then
          consider_incumbent x (Linexpr.eval obj_expr x)
        else Log.warn (fun f -> f "warm incumbent rejected: infeasible")
      | None -> ());
     Heap.push heap neg_infinity 0 { overrides = []; depth = 0; parent = -1 }
   | Some ck ->
     (* a checkpoint file comes from outside the program, and its
        variable ids index this model's arrays unchecked *)
     (match ck.ck_best with
      | Some (_, x) when Array.length x <> n ->
        invalid_arg
          (Fmt.str "checkpoint: incumbent has %d entries, the model %d \
                    variables" (Array.length x) n)
      | Some (_, x) -> (
        (* 1e-5 sits above the kernel's perturbation (<= 1.78e-6), so an
           LP-vertex incumbent of this model passes *)
        match Problem.check_solution ~eps:1.0e-5 p0 x with
        | [] -> ()
        | violated ->
          invalid_arg
            (Fmt.str "checkpoint: incumbent fails %d checks of the model, \
                      e.g. %s" (List.length violated) (List.hd violated)))
      | None -> ());
     List.iter
       (fun cn ->
         List.iter
           (fun (j, _, _) ->
             if j < 0 || j >= n then
               invalid_arg
                 (Fmt.str "checkpoint: frontier override of variable %d, \
                           the model has %d" j n))
           cn.ck_overrides)
       ck.ck_frontier;
     (* rehydrate: counters, incumbent, frontier and basis pool continue
        exactly where the checkpointed search stopped — no root push, no
        re-fired incumbent hook *)
     Simplex_core.set_counters ~into:cnt ck.ck_counters;
     nodes := ck.ck_nodes;
     simplex_solves := ck.ck_simplex_solves;
     cold_ref_pivots := ck.ck_cold_ref_pivots;
     lp_time := ck.ck_lp_time_s;
     tie := ck.ck_tie;
     (match ck.ck_best with
      | Some (obj, x) ->
        best_obj := sense *. obj;
        best_x := Some (Array.copy x)
      | None -> ());
     List.iter
       (fun cn ->
         Heap.push heap cn.ck_prio cn.ck_node_tie
           {
             overrides = cn.ck_overrides;
             depth = cn.ck_depth;
             parent = cn.ck_parent;
           })
       ck.ck_frontier;
     List.iter
       (fun (id, basis, refs, last) ->
         if not (Hashtbl.mem pool id) then begin
           Hashtbl.replace pool id (basis, ref refs, ref last);
           incr pool_size
         end)
       ck.ck_pool;
     pool_tick := ck.ck_pool_tick;
     Log.info (fun f ->
         f "resumed from checkpoint: %d nodes explored, %d open, %d bases"
           ck.ck_nodes (List.length ck.ck_frontier) (List.length ck.ck_pool)));
  let build_checkpoint () =
    let frontier =
      Heap.fold
        (fun acc (prio, t, nd) ->
          {
            ck_prio = prio;
            ck_node_tie = t;
            ck_depth = nd.depth;
            ck_parent = nd.parent;
            ck_overrides = nd.overrides;
          }
          :: acc)
        [] heap
      |> List.sort (fun a b ->
             if a.ck_prio <> b.ck_prio then Float.compare a.ck_prio b.ck_prio
             else compare b.ck_node_tie a.ck_node_tie)
    in
    let pool_entries =
      Hashtbl.fold
        (fun id (basis, refs, last) acc -> (id, basis, !refs, !last) :: acc)
        pool []
      |> List.sort (fun (a, _, _, _) (b, _, _, _) -> compare a b)
    in
    {
      ck_nodes = !nodes;
      ck_tie = !tie;
      ck_simplex_solves = !simplex_solves;
      ck_best = Option.map (fun x -> (sense *. !best_obj, Array.copy x)) !best_x;
      ck_cold_ref_pivots = !cold_ref_pivots;
      ck_counters = Simplex_core.copy_counters cnt;
      ck_lp_time_s = !lp_time;
      ck_frontier = frontier;
      ck_pool = pool_entries;
      ck_pool_tick = !pool_tick;
    }
  in
  let emit_checkpoint () =
    match on_checkpoint with
    | None -> ()
    | Some f -> f (build_checkpoint ())
  in
  let checkpoint_due () =
    on_checkpoint <> None && checkpoint_every > 0
    && !nodes mod checkpoint_every = 0
  in
  let hit_limit = ref false in
  let root_infeasible = ref false in
  let root_unbounded = ref false in
  let lo = Array.make n 0.0 and hi = Array.make n 0.0 in
  let rounded = Array.make n 0.0 in
  let continue = ref true in
  while !continue do
    match Heap.pop heap with
    | None -> continue := false
    | Some (prio, ptie, node) ->
      if hooks.should_stop () then begin
        (* interrupted: the popped node is still unexplored — put it back
           so a final checkpoint captures the complete frontier *)
        Heap.push heap prio ptie node;
        hit_limit := true;
        continue := false
      end
      else if not (keep prio) then
        (* bound-based prune; the heap is ordered so everything else is
           prunable too *)
        continue := false
      else if !nodes >= node_limit || Clock.now () > deadline then begin
        Heap.push heap prio ptie node;
        hit_limit := true;
        continue := false
      end
      else begin
        incr nodes;
        Array.blit root_lo 0 lo 0 n;
        Array.blit root_hi 0 hi 0 n;
        List.iter
          (fun (j, l, h) ->
            lo.(j) <- Float.max lo.(j) l;
            hi.(j) <- Float.min hi.(j) h)
          node.overrides;
        incr simplex_solves;
        let pivots_before = cnt.Simplex_core.pivots + cnt.Simplex_core.dual_pivots in
        let lp_t0 = Clock.now () in
        (* the parent's basis, when it survived in the pool; the root has
           no parent and always solves cold *)
        let offered =
          if node.parent >= 0 then pool_take node.parent else None
        in
        let wanted_warm = basis_pool > 0 && node.parent >= 0 in
        let wr =
          Simplex.solve_warm ~counters:cnt ~deadline ~bounds:(lo, hi)
            ?max_iters:max_lp_iters ?basis:offered p
        in
        let lp_result = wr.Simplex.wr_result in
        lp_time := !lp_time +. (Clock.now () -. lp_t0);
        let spent =
          cnt.Simplex_core.pivots + cnt.Simplex_core.dual_pivots
          - pivots_before
        in
        (* the first from-scratch solve anchors the pivots-saved estimate *)
        if !cold_ref_pivots = None && not wr.Simplex.wr_warm then
          cold_ref_pivots := Some spent;
        if wanted_warm then begin
          if wr.Simplex.wr_warm then begin
            cnt.Simplex_core.warm_hits <- cnt.Simplex_core.warm_hits + 1;
            hooks.on_basis ~node:!nodes Warm_hit;
            match !cold_ref_pivots with
            | Some c when c > spent ->
              cnt.Simplex_core.dual_pivots_saved <-
                cnt.Simplex_core.dual_pivots_saved + (c - spent)
            | _ -> ()
          end
          else begin
            cnt.Simplex_core.warm_misses <- cnt.Simplex_core.warm_misses + 1;
            hooks.on_basis ~node:!nodes Warm_miss
          end
        end;
        hooks.on_node ~node:!nodes ~depth:node.depth
          ~bound:
            (match lp_result with
             | Simplex.Optimal { obj; _ } -> Some obj
             | _ -> None)
          ~pivots:spent;
        (match lp_result with
         | Simplex.Infeasible ->
           if node.depth = 0 then root_infeasible := true
         | Simplex.Unbounded ->
           if node.depth = 0 then begin
             root_unbounded := true;
             continue := false
           end
         | Simplex.Iteration_limit ->
           (* the node's LP was cut short: un-count the exploration, put
              the node back in the frontier and end the search so a
              resume from the final checkpoint does not lose the subtree
              (its parent basis was already consumed, so the resumed
              search re-solves it cold) *)
           decr nodes;
           decr simplex_solves;
           Heap.push heap prio ptie node;
           hit_limit := true;
           continue := false
         | Simplex.Optimal { obj; x } ->
           let bound_min = sense *. obj in
           if keep bound_min then begin
             (* rounding heuristic *)
             Array.blit x 0 rounded 0 n;
             Array.iter
               (fun j -> rounded.(j) <- Float.round rounded.(j))
               int_vars;
             if Problem.check_solution ~eps:1.0e-6 p rounded = [] then
               consider_incumbent rounded (Linexpr.eval obj_expr rounded);
             (* branching variable: the most fractional one *)
             let branch_var = ref (-1) in
             let best_frac = ref int_eps in
             Array.iter
               (fun j ->
                 let v = x.(j) in
                 let frac = Float.abs (v -. Float.round v) in
                 if frac > !best_frac then begin
                   best_frac := frac;
                   branch_var := j
                 end)
               int_vars;
             if !branch_var < 0 then
               (* integral LP optimum *)
               consider_incumbent x obj
             else if keep bound_min then begin
               let j = !branch_var in
               let v = x.(j) in
               let fl = Float.of_int (int_of_float (Float.floor v)) in
               let my_id = !nodes in
               (match wr.Simplex.wr_basis with
                | Some b when basis_pool > 0 -> pool_put my_id b
                | _ -> ());
               incr tie;
               Heap.push heap (lift bound_min) !tie
                 {
                   overrides = (j, neg_infinity, fl) :: node.overrides;
                   depth = node.depth + 1;
                   parent = my_id;
                 };
               incr tie;
               Heap.push heap (lift bound_min) !tie
                 {
                   overrides = (j, fl +. 1.0, infinity) :: node.overrides;
                   depth = node.depth + 1;
                   parent = my_id;
                 }
             end
           end);
        if checkpoint_due () then emit_checkpoint ()
      end
  done;
  (* interrupt checkpoint: deadline, node limit, should_stop or an LP
     iteration limit — anything that leaves unexplored work behind *)
  if !hit_limit then emit_checkpoint ();
  let time_s = Clock.now () -. t0 in
  let open_bound =
    Heap.fold (fun acc (prio, _, _) -> Float.min acc prio) infinity heap
  in
  let best_bound_min =
    if !root_unbounded then neg_infinity
    else lift (Float.min !best_obj open_bound)
  in
  let has_incumbent = !best_x <> None in
  let status =
    if !root_unbounded then Unbounded
    else if !root_infeasible && not has_incumbent then Infeasible
    else if has_incumbent && not (keep open_bound) then Optimal
    else if has_incumbent then Feasible
    else if !hit_limit then Unknown
    else Infeasible
  in
  let obj = Option.map (fun _ -> sense *. !best_obj) !best_x in
  let gap =
    match obj with
    | Some _ when status = Optimal -> Some 0.0
    | Some _ ->
      let inc = !best_obj and bnd = best_bound_min in
      if bnd = neg_infinity then None
      else Some (Float.abs (inc -. bnd) /. Float.max 1.0 (Float.abs inc))
    | None -> None
  in
  {
    status;
    obj;
    x = !best_x;
    stats =
      {
        nodes = !nodes;
        simplex_solves = !simplex_solves;
        time_s;
        best_bound = sense *. best_bound_min;
        gap;
        lp = lp_of_counters cnt ~lp_time_s:!lp_time ~presolve:pre;
      };
  }
