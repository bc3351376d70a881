(* Simplex tableau state behind the one-shot LP solver ({!Simplex}) and
   the warm-basis reoptimization of branch-and-bound nodes.

   A node LP restarts from a saved {!Basis}: {!restore} rebuilds the
   tableau under the node's bounds, crashes the basis in and runs
   {!dual_restore}, the bounded dual simplex, to re-establish primal
   feasibility while the reduced costs keep the basis (near) dual
   feasible.

   Hot-path engineering (measured by the retired PRICING bench section,
   EXPERIMENTS.md; perfbench's lp.* metrics now):
   - every tableau row carries its nonzero support (a superset compacted
     whenever the row pivots), so Gaussian eliminations, reduced-cost
     updates and the dual entering scan skip structurally-zero entries;
   - the primal entering choice is devex reference-weight pricing over a
     bounded candidate list refreshed by a rotating partial scan, with
     classic Dantzig and Bland selectable per solve ({!pricing});
     optimality is only ever declared after a full refresh scan comes up
     empty, so partial pricing never weakens the optimality claim;
   - [row_of_col] inverts the basis so {!col_value} and the basis crash's
     basic-column lookups are O(1) instead of an O(m) basis scan.

   Conventions: every variable is bounded below ({!Problem} rejects a
   lower bound of -inf), so each structural column has lower bound 0
   after a per-variable shift; nonbasic columns rest at a bound; [beta]
   holds the basic values. See {!Simplex} for the one-shot API. *)

let src = Logs.Src.create "milp.simplex" ~doc:"LP simplex solver"

module Log = (val Logs.src_log src : Logs.LOG)

type status = At_lower | At_upper | Basic

(* Primal entering-variable rule. Devex (the default) prices a bounded
   candidate list against reference weights approximating steepest-edge
   norms; Dantzig is the classic most-negative full scan; Bland is the
   smallest-index full scan (terminating, slow). All three fall back to
   Bland's rule automatically after a degenerate stall. *)
type pricing = Dantzig | Devex | Bland

(* Work counters, accumulated across every phase (and, via [?counters] on
   {!build}, across all tableaus of a branch-and-bound search). The warm
   fields account for {!Basis} reuse: a hit is a solve answered by a
   restored basis, a miss is a solve that wanted one but fell back to the
   cold path (basis evicted, structurally incompatible, or the dual
   repair failed); [dual_pivots_saved] is the caller's estimate of pivots
   the reuse avoided, and [basis_evictions] counts pool entries dropped
   under memory pressure. *)
type counters = {
  mutable pivots : int;             (* primal basis changes (phases I+II) *)
  mutable dual_pivots : int;        (* dual-simplex repair pivots *)
  mutable pricing_scanned : int;    (* candidate columns priced *)
  mutable pricing_refreshes : int;  (* candidate-list rebuild scans *)
  mutable warm_hits : int;          (* solves answered from a restored basis *)
  mutable warm_misses : int;        (* wanted a basis, fell back cold *)
  mutable dual_pivots_saved : int;  (* estimated pivots avoided by reuse *)
  mutable basis_evictions : int;    (* basis-pool LRU evictions *)
}

let fresh_counters () =
  {
    pivots = 0;
    dual_pivots = 0;
    pricing_scanned = 0;
    pricing_refreshes = 0;
    warm_hits = 0;
    warm_misses = 0;
    dual_pivots_saved = 0;
    basis_evictions = 0;
  }

(* Immutable snapshot of a counters record (checkpointing). *)
let copy_counters c = { c with pivots = c.pivots }

(* Overwrite [into] with [c]'s values (checkpoint rehydration). *)
let set_counters ~into c =
  into.pivots <- c.pivots;
  into.dual_pivots <- c.dual_pivots;
  into.pricing_scanned <- c.pricing_scanned;
  into.pricing_refreshes <- c.pricing_refreshes;
  into.warm_hits <- c.warm_hits;
  into.warm_misses <- c.warm_misses;
  into.dual_pivots_saved <- c.dual_pivots_saved;
  into.basis_evictions <- c.basis_evictions

type t = {
  problem : Problem.t;
  n : int;
  m : int;
  ncols : int;
  nstruct : int;
  mutable act : int;               (* active column width *)
  tab : float array array;         (* m x ncols: B^-1 A *)
  beta : float array;              (* basic values *)
  basis : int array;
  row_of_col : int array;          (* ncols: basis row of a Basic column, -1 otherwise *)
  stat : status array;
  upper : float array;             (* column upper bounds (lower is 0) *)
  enterable : bool array;
  (* Every variable is bounded below, so it maps to solver columns as
     x = shift + y_col, with shift its lower bound under the bounds the
     tableau was built with ([build ?bounds] takes a node's overrides);
     a fixed variable (lo = hi) has no column and x = shift. *)
  shift : float array;             (* per original variable *)
  col_of_var : int array;          (* structural column, -1 if fixed *)
  artificials : int list;
  row_slack : int array;           (* m: slack column of each row, -1 if none *)
  sense_sig : int;                 (* order-sensitive hash of the problem's
                                      original row senses — independent of the
                                      RHS-sign normalization, so it is stable
                                      across bound changes (branching) *)
  mutable cost : float array;      (* phase-2 reduced costs (minimization) *)
  mutable obj_sign : float;        (* +1 minimize, -1 maximize *)
  mutable iters : int;
  pricing : pricing;
  cnt : counters;
  (* sparse row supports: [rsup.(i).(0 .. rsup_len.(i)-1)] is a superset
     of the nonzero columns of row i (below [act]); [rmem.(i)] is the
     membership byte per column. Fill-in is appended on elimination; the
     pivot row's support is rebuilt exactly at every pivot. *)
  rsup : int array array;
  rsup_len : int array;
  rmem : Bytes.t array;
  (* devex reference weights (primal pricing) *)
  dw : float array;
  (* partial-pricing candidate list (kept with its devex scores) *)
  cands : int array;
  cscore : float array;
  mutable ncands : int;
  mutable since_refresh : int;
}

let feas_eps = 1.0e-7
let pivot_eps = 1.0e-8
let cost_eps = 1.0e-7

(* candidate-list partial pricing: list width and forced-refresh period *)
let max_cands = 64
let refresh_period = 25

(* reset the devex reference framework when weights blow past this *)
let devex_weight_cap = 1.0e10

let iterations t = t.iters
let counters t = t.cnt

(* Current value of column [j]: O(1) via the inverse basis map. *)
let col_value tb j =
  match tb.stat.(j) with
  | At_lower -> 0.0
  | At_upper -> tb.upper.(j)
  | Basic ->
    let r = tb.row_of_col.(j) in
    if r >= 0 then tb.beta.(r) else 0.0

(* Append column [k] to row [i]'s support if not already present. *)
let sup_add tb i k =
  if Bytes.unsafe_get tb.rmem.(i) k = '\000' then begin
    Bytes.unsafe_set tb.rmem.(i) k '\001';
    let len = tb.rsup_len.(i) in
    let arr = tb.rsup.(i) in
    let arr =
      if len = Array.length arr then begin
        let bigger = Array.make (max 8 (2 * len)) 0 in
        Array.blit arr 0 bigger 0 len;
        tb.rsup.(i) <- bigger;
        bigger
      end
      else arr
    in
    arr.(len) <- k;
    tb.rsup_len.(i) <- len + 1
  end

(* Gaussian elimination pivot on (row r, column j); [costs] rows are
   eliminated alongside. [beta] is NOT touched: callers maintain it
   explicitly (needed for nonbasic-at-upper bookkeeping). The pivot
   row's support is rebuilt exactly (stale and deactivated entries are
   dropped); other rows gain fill-in entries, so their supports stay
   supersets of the true nonzero patterns. *)
let pivot tb costs r j =
  let trow = tb.tab.(r) in
  let p = trow.(j) in
  if Float.abs p < pivot_eps then invalid_arg "simplex: zero pivot";
  let act = tb.act in
  let inv = 1.0 /. p in
  let sup = tb.rsup.(r) in
  let len = tb.rsup_len.(r) in
  let mem = tb.rmem.(r) in
  let w = ref 0 in
  for ki = 0 to len - 1 do
    let k = Array.unsafe_get sup ki in
    if k < act then begin
      let v = Array.unsafe_get trow k *. inv in
      if v <> 0.0 then begin
        Array.unsafe_set trow k v;
        Array.unsafe_set sup !w k;
        incr w
      end
      else Bytes.unsafe_set mem k '\000'
    end
    else Bytes.unsafe_set mem k '\000'
  done;
  let n_nnz = !w in
  tb.rsup_len.(r) <- n_nnz;
  let eliminate_dense row f =
    for ki = 0 to n_nnz - 1 do
      let k = Array.unsafe_get sup ki in
      Array.unsafe_set row k
        (Array.unsafe_get row k -. (f *. Array.unsafe_get trow k))
    done;
    row.(j) <- 0.0
  in
  for i = 0 to tb.m - 1 do
    if i <> r then begin
      let row = tb.tab.(i) in
      let f = row.(j) in
      if f <> 0.0 then begin
        let memi = tb.rmem.(i) in
        for ki = 0 to n_nnz - 1 do
          let k = Array.unsafe_get sup ki in
          Array.unsafe_set row k
            (Array.unsafe_get row k -. (f *. Array.unsafe_get trow k));
          if Bytes.unsafe_get memi k = '\000' then sup_add tb i k
        done;
        row.(j) <- 0.0
      end
    end
  done;
  List.iter
    (fun cost ->
      let f = cost.(j) in
      if f <> 0.0 then eliminate_dense cost f)
    costs

(* ------------------------------------------------------------------ *)
(* Primal pricing                                                      *)
(* ------------------------------------------------------------------ *)

(* Improvement magnitude |d_j| of column [j], 0.0 when it may not enter. *)
let favorable tb cost j =
  if not tb.enterable.(j) then 0.0
  else
    match tb.stat.(j) with
    | Basic -> 0.0
    | At_lower -> if cost.(j) < -.cost_eps then -.cost.(j) else 0.0
    | At_upper -> if cost.(j) > cost_eps then cost.(j) else 0.0

(* Bland: smallest favorable index, full scan. *)
let select_bland tb cost =
  let entering = ref (-1) in
  (try
     for j = 0 to tb.act - 1 do
       if favorable tb cost j > 0.0 then begin
         entering := j;
         raise Exit
       end
     done
   with Exit -> ());
  tb.cnt.pricing_scanned <-
    tb.cnt.pricing_scanned + (if !entering < 0 then tb.act else !entering + 1);
  !entering

(* Dantzig: most favorable reduced cost, full scan (ties to the first). *)
let select_dantzig tb cost =
  let entering = ref (-1) in
  let best = ref 0.0 in
  for j = 0 to tb.act - 1 do
    let d = favorable tb cost j in
    if d > !best then begin
      best := d;
      entering := j
    end
  done;
  tb.cnt.pricing_scanned <- tb.cnt.pricing_scanned + tb.act;
  !entering

(* Rebuild the candidate list: full scan of the active range, keeping the
   [max_cands] columns with the best devex scores d_j^2 / w_j (min-tracked
   replacement into a fixed-width list). The scan always covers every
   active column, so an empty refresh proves optimality. *)
let refresh_cands tb cost =
  tb.cnt.pricing_refreshes <- tb.cnt.pricing_refreshes + 1;
  tb.since_refresh <- 0;
  let act = tb.act in
  let cap = Array.length tb.cands in
  let n = ref 0 in
  let min_i = ref 0 in
  for j = 0 to act - 1 do
    let d = favorable tb cost j in
    if d > 0.0 then begin
      let score = d *. d /. tb.dw.(j) in
      if !n < cap then begin
        tb.cands.(!n) <- j;
        tb.cscore.(!n) <- score;
        if !n = 0 || score < tb.cscore.(!min_i) then min_i := !n;
        incr n
      end
      else if score > tb.cscore.(!min_i) then begin
        tb.cands.(!min_i) <- j;
        tb.cscore.(!min_i) <- score;
        let m = ref 0 in
        for k = 1 to cap - 1 do
          if tb.cscore.(k) < tb.cscore.(!m) then m := k
        done;
        min_i := !m
      end
    end
  done;
  tb.cnt.pricing_scanned <- tb.cnt.pricing_scanned + act;
  tb.ncands <- !n

(* Devex over the candidate list: maximize d_j^2 / w_j among candidates,
   dropping entries that are no longer favorable. Refreshes when the list
   runs dry (and periodically, to pick up newly-favorable columns); a
   refresh that finds nothing is a proof of optimality. *)
let select_devex tb cost =
  let pick () =
    let entering = ref (-1) in
    let best = ref 0.0 in
    let w = ref 0 in
    for ci = 0 to tb.ncands - 1 do
      let j = tb.cands.(ci) in
      let d = favorable tb cost j in
      if d > 0.0 then begin
        tb.cands.(!w) <- j;
        incr w;
        let score = d *. d /. tb.dw.(j) in
        if score > !best then begin
          best := score;
          entering := j
        end
      end
    done;
    tb.cnt.pricing_scanned <- tb.cnt.pricing_scanned + tb.ncands;
    tb.ncands <- !w;
    !entering
  in
  tb.since_refresh <- tb.since_refresh + 1;
  if tb.since_refresh >= refresh_period then refresh_cands tb cost;
  let e = pick () in
  if e >= 0 then e
  else begin
    refresh_cands tb cost;
    pick ()
  end

(* Devex reference-weight update after pivoting column [q] into row [r]:
   for every column of the (already scaled) pivot row,
   w_k := max(w_k, trow_k^2 * w_q); the leaving variable gets
   max(w_q / p^2, 1) where p is the pre-scale pivot element. Weights are
   reset to the unit framework when they blow up. *)
let devex_update tb r q ~wq ~pval ~leaving =
  let trow = tb.tab.(r) in
  let sup = tb.rsup.(r) in
  let len = tb.rsup_len.(r) in
  let dw = tb.dw in
  let maxw = ref 0.0 in
  for ki = 0 to len - 1 do
    let k = Array.unsafe_get sup ki in
    if k <> q then begin
      let a = Array.unsafe_get trow k in
      let w = a *. a *. wq in
      if w > Array.unsafe_get dw k then begin
        Array.unsafe_set dw k w;
        if w > !maxw then maxw := w
      end
    end
  done;
  let wl = Float.max 1.0 (wq /. (pval *. pval)) in
  dw.(leaving) <- wl;
  dw.(q) <- 1.0;
  if !maxw > devex_weight_cap || wl > devex_weight_cap then
    Array.fill dw 0 tb.ncols 1.0

(* One primal iteration on the given reduced-cost row. *)
let step tb cost ~rule =
  let entering =
    match rule with
    | Bland -> select_bland tb cost
    | Dantzig -> select_dantzig tb cost
    | Devex -> select_devex tb cost
  in
  if entering < 0 then `Optimal
  else begin
    let j = entering in
    let sigma = match tb.stat.(j) with At_lower -> 1.0 | _ -> -1.0 in
    let t_best = ref tb.upper.(j) in
    let leave_row = ref (-1) in
    let leave_to_upper = ref false in
    for i = 0 to tb.m - 1 do
      let d = sigma *. tb.tab.(i).(j) in
      if d > pivot_eps then begin
        let t = Float.max 0.0 (tb.beta.(i) /. d) in
        if t < !t_best -. 1.0e-12 || (!leave_row < 0 && t <= !t_best) then begin
          t_best := t;
          leave_row := i;
          leave_to_upper := false
        end
      end
      else if d < -.pivot_eps then begin
        let u = tb.upper.(tb.basis.(i)) in
        if u < infinity then begin
          let t = Float.max 0.0 ((u -. tb.beta.(i)) /. -.d) in
          if t < !t_best -. 1.0e-12 || (!leave_row < 0 && t <= !t_best) then begin
            t_best := t;
            leave_row := i;
            leave_to_upper := true
          end
        end
      end
    done;
    if !t_best = infinity then `Unbounded
    else begin
      let t = !t_best in
      tb.iters <- tb.iters + 1;
      if !leave_row < 0 then begin
        for i = 0 to tb.m - 1 do
          tb.beta.(i) <- tb.beta.(i) -. (sigma *. tb.tab.(i).(j) *. t)
        done;
        tb.stat.(j) <-
          (match tb.stat.(j) with At_lower -> At_upper | _ -> At_lower);
        `Step
      end
      else begin
        let r = !leave_row in
        for i = 0 to tb.m - 1 do
          if i <> r then
            tb.beta.(i) <- tb.beta.(i) -. (sigma *. tb.tab.(i).(j) *. t)
        done;
        let entering_value =
          match tb.stat.(j) with
          | At_lower -> t
          | At_upper -> tb.upper.(j) -. t
          | Basic -> assert false
        in
        let old_basic = tb.basis.(r) in
        tb.stat.(old_basic) <- (if !leave_to_upper then At_upper else At_lower);
        tb.stat.(j) <- Basic;
        tb.basis.(r) <- j;
        tb.row_of_col.(old_basic) <- -1;
        tb.row_of_col.(j) <- r;
        tb.beta.(r) <- entering_value;
        `Pivot (r, j, old_basic)
      end
    end
  end

(* Degenerate-stall escalation ladder. Level 0 is the phase's configured
   pricing rule. A stall longer than the threshold first demotes devex
   partial pricing to a full Dantzig scan (level 1) with a fresh
   reference framework — a stale candidate list is the usual culprit,
   and full pricing escapes most stalls that partial pricing walks in
   circles on. Only a second full stall window engages Bland's rule
   (level 2, gated on the live stall counter exactly as before, so it
   disengages after a progress pivot). Dantzig/Bland runs skip straight
   to level 2. *)
let run_phase tb cost ~pricing ~extra_costs ~max_iters ~deadline =
  let stall = ref 0 in
  let fallback = ref (match pricing with Devex -> 0 | _ -> 2) in
  let bland_threshold = 2 * (tb.m + tb.ncols) in
  let rec loop () =
    if
      tb.iters > max_iters
      || (tb.iters land 127 = 0 && Clock.now () > deadline)
    then `Iteration_limit
    else begin
      if !stall > bland_threshold && !fallback < 2 then begin
        if !fallback = 0 then begin
          tb.ncands <- 0;
          Array.fill tb.dw 0 tb.ncols 1.0
        end;
        incr fallback;
        stall := 0
      end;
      let rule =
        if !fallback = 2 && !stall > bland_threshold then Bland
        else
          match !fallback with
          | 0 -> pricing
          | _ -> ( match pricing with Bland -> Bland | _ -> Dantzig)
      in
      match step tb cost ~rule with
      | `Optimal -> `Optimal
      | `Unbounded -> `Unbounded
      | `Step ->
        incr stall;
        loop ()
      | `Pivot (r, j, leaving) ->
        let wq = tb.dw.(j) in
        let pval = tb.tab.(r).(j) in
        pivot tb (cost :: extra_costs) r j;
        tb.cnt.pivots <- tb.cnt.pivots + 1;
        if rule = Devex then devex_update tb r j ~wq ~pval ~leaving;
        if tb.beta.(r) > feas_eps then stall := 0 else incr stall;
        loop ()
    end
  in
  loop ()

(* Reduced costs of [c] w.r.t. the current basis, using the row supports
   (entries outside a support are structurally zero). *)
let reduced_costs tb c =
  let cost = Array.copy c in
  let act = tb.act in
  for i = 0 to tb.m - 1 do
    let cb = c.(tb.basis.(i)) in
    if Float.abs cb > 0.0 then begin
      let row = tb.tab.(i) in
      let sup = tb.rsup.(i) in
      for ki = 0 to tb.rsup_len.(i) - 1 do
        let k = Array.unsafe_get sup ki in
        if k < act then
          Array.unsafe_set cost k
            (Array.unsafe_get cost k -. (cb *. Array.unsafe_get row k))
      done
    end
  done;
  for i = 0 to tb.m - 1 do
    cost.(tb.basis.(i)) <- 0.0
  done;
  cost

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let build ?(pricing = Devex) ?counters ?bounds (p : Problem.t) =
  let n = Problem.num_vars p in
  let get_bounds j =
    match bounds with
    | Some (lo, hi) -> (lo.(j), hi.(j))
    | None -> Problem.var_bounds p j
  in
  let shift = Array.make n 0.0 in
  let col_of_var = Array.make n (-1) in
  let ncols_struct = ref 0 in
  let col_upper = ref [] in
  let infeasible_bounds = ref false in
  for j = 0 to n - 1 do
    let lo, hi = get_bounds j in
    if lo = neg_infinity then
      invalid_arg "Simplex_core.build: a variable is not bounded below";
    if lo > hi +. 1.0e-12 then infeasible_bounds := true
    else begin
      shift.(j) <- lo;
      if Float.abs (hi -. lo) > 1.0e-12 then begin
        col_upper := (hi -. lo) :: !col_upper;
        col_of_var.(j) <- !ncols_struct;
        incr ncols_struct
      end
    end
  done;
  if !infeasible_bounds then None
  else begin
    let nstruct = !ncols_struct in
    let struct_upper = Array.of_list (List.rev !col_upper) in
    let substitute expr =
      let row = Array.make nstruct 0.0 in
      let const = ref (Linexpr.constant expr) in
      Linexpr.iter_terms
        (fun c j ->
          let col = col_of_var.(j) in
          if col >= 0 then row.(col) <- row.(col) +. c;
          const := !const +. (c *. shift.(j)))
        expr;
      (row, !const)
    in
    let m = Problem.num_constrs p in
    let rows = Array.make m [||] in
    let rhs = Array.make m 0.0 in
    let senses = Array.make m Problem.Eq in
    let osenses = Array.make m Problem.Eq in
    let row_ids = Array.make m 0 in
    let k = ref 0 in
    Problem.iter_constrs
      (fun c ->
        row_ids.(!k) <- c.Problem.c_id;
        osenses.(!k) <- c.Problem.c_sense;
        let row, const = substitute c.Problem.c_expr in
        let b = c.Problem.c_rhs -. const in
        (* normalize to b >= 0; ">= 0" rows become "<= 0" so they start
           feasible with a plain slack and need no artificial *)
        let row, b, sense =
          if b < 0.0 || (b = 0.0 && c.Problem.c_sense = Problem.Ge) then begin
            for i = 0 to nstruct - 1 do
              row.(i) <- -.row.(i)
            done;
            ( row,
              -.b,
              match c.Problem.c_sense with
              | Problem.Le -> Problem.Ge
              | Problem.Ge -> Problem.Le
              | Problem.Eq -> Problem.Eq )
          end
          else (row, b, c.Problem.c_sense)
        in
        rows.(!k) <- row;
        rhs.(!k) <- b;
        senses.(!k) <- sense;
        incr k)
      p;
    let n_slack =
      Array.fold_left
        (fun acc s ->
          match s with Problem.Le | Problem.Ge -> acc + 1 | Problem.Eq -> acc)
        0 senses
    in
    let n_artif =
      Array.fold_left
        (fun acc s ->
          match s with Problem.Ge | Problem.Eq -> acc + 1 | Problem.Le -> acc)
        0 senses
    in
    let ncols = nstruct + n_slack + n_artif in
    let tab =
      Array.init m (fun i ->
          let row = Array.make ncols 0.0 in
          Array.blit rows.(i) 0 row 0 nstruct;
          row)
    in
    let upper = Array.make ncols infinity in
    Array.blit struct_upper 0 upper 0 nstruct;
    let stat = Array.make ncols At_lower in
    let basis = Array.make m (-1) in
    let beta = Array.make m 0.0 in
    let enterable = Array.make ncols true in
    let slack_idx = ref nstruct in
    let artif_idx = ref (nstruct + n_slack) in
    let artificials = ref [] in
    let row_slack = Array.make m (-1) in
    for i = 0 to m - 1 do
      beta.(i) <- rhs.(i);
      match senses.(i) with
      | Problem.Le ->
        let s = !slack_idx in
        incr slack_idx;
        tab.(i).(s) <- 1.0;
        basis.(i) <- s;
        stat.(s) <- Basic;
        row_slack.(i) <- s
      | Problem.Ge ->
        let s = !slack_idx in
        incr slack_idx;
        tab.(i).(s) <- -1.0;
        row_slack.(i) <- s;
        let a = !artif_idx in
        incr artif_idx;
        tab.(i).(a) <- 1.0;
        basis.(i) <- a;
        stat.(a) <- Basic;
        enterable.(a) <- false;
        artificials := a :: !artificials
      | Problem.Eq ->
        let a = !artif_idx in
        incr artif_idx;
        tab.(i).(a) <- 1.0;
        basis.(i) <- a;
        stat.(a) <- Basic;
        enterable.(a) <- false;
        artificials := a :: !artificials
    done;
    let row_of_col = Array.make ncols (-1) in
    for i = 0 to m - 1 do
      row_of_col.(basis.(i)) <- i
    done;
    (* initial row supports: exact nonzero patterns of the start tableau *)
    let rsup = Array.make m [||] in
    let rsup_len = Array.make m 0 in
    let rmem = Array.init m (fun _ -> Bytes.make ncols '\000') in
    for i = 0 to m - 1 do
      let row = tab.(i) in
      let nnz = ref 0 in
      for k = 0 to ncols - 1 do
        if row.(k) <> 0.0 then incr nnz
      done;
      let sup = Array.make (max 8 !nnz) 0 in
      let w = ref 0 in
      let mem = rmem.(i) in
      for k = 0 to ncols - 1 do
        if row.(k) <> 0.0 then begin
          sup.(!w) <- k;
          incr w;
          Bytes.set mem k '\001'
        end
      done;
      rsup.(i) <- sup;
      rsup_len.(i) <- !w
    done;
    (* hash the ORIGINAL senses, not the normalized ones: normalization
       flips with the sign of the (bound-shifted) RHS, so a hash of the
       normalized senses would change under branching bounds and defeat
       warm starts (see [Basis]) *)
    let sense_sig =
      Array.fold_left
        (fun h s ->
          (h * 31)
          + (match s with Problem.Le -> 1 | Problem.Ge -> 2 | Problem.Eq -> 3))
        17 osenses
    in
    let tb =
      {
        problem = p;
        n;
        m;
        ncols;
        nstruct;
        act = ncols;
        tab;
        beta;
        basis;
        row_of_col;
        stat;
        upper;
        enterable;
        shift;
        col_of_var;
        artificials = !artificials;
        row_slack;
        sense_sig;
        cost = [||];
        obj_sign = 1.0;
        iters = 0;
        pricing;
        cnt = (match counters with Some c -> c | None -> fresh_counters ());
        rsup;
        rsup_len;
        rmem;
        dw = Array.make ncols 1.0;
        cands = Array.make (max 1 (min ncols max_cands)) 0;
        cscore = Array.make (max 1 (min ncols max_cands)) 0.0;
        ncands = 0;
        since_refresh = 0;
      }
    in
    (* tiny deterministic rhs perturbation against degenerate stalling,
       inequality rows only (each has its own slack, so no dependency
       between equalities can be broken). Keyed on the row's stable origin
       id [Problem.c_id], not its current index: presolve drops redundant
       rows, and an index-keyed perturbation would re-key every surviving
       row — the reduced and original problems would then solve to
       different vertices and branch-and-bound would explore genuinely
       different trees. Origin ids survive presolve verbatim, so the
       perturbed geometries agree (and without presolve, id = index, so
       this is exactly the historical perturbation). *)
    for i = 0 to m - 1 do
      match senses.(i) with
      | Problem.Le | Problem.Ge ->
        tb.beta.(i) <-
          tb.beta.(i)
          +. (2.0e-8 *. float_of_int (1 + (row_ids.(i) mod 89)))
      | Problem.Eq -> ()
    done;
    Some tb
  end

(* ------------------------------------------------------------------ *)
(* Phases                                                              *)
(* ------------------------------------------------------------------ *)

(* Phase I: drive artificials to zero, fix them there, try to pivot the
   degenerate ones out of the basis, shrink the active width. *)
let phase1 tb ~max_iters ~deadline =
  if tb.artificials = [] then begin
    tb.act <- tb.ncols - 0;
    (* no artificial columns were created at all *)
    `Feasible
  end
  else begin
    let c1 = Array.make tb.ncols 0.0 in
    List.iter (fun a -> c1.(a) <- 1.0) tb.artificials;
    let cost = reduced_costs tb c1 in
    (* Phase I prices the artificial objective with a full Dantzig scan
       even under devex: the auxiliary cost row is ephemeral and heavily
       degenerate, and reference weights learned on it are worthless (and
       measurably unstable) — the devex framework starts fresh on the
       real objective in phase II. A configured Bland run stays Bland. *)
    let ph1_pricing = match tb.pricing with Devex -> Dantzig | r -> r in
    match
      run_phase tb cost ~pricing:ph1_pricing ~extra_costs:[] ~max_iters
        ~deadline
    with
    | `Optimal ->
      let infeas =
        List.fold_left (fun acc a -> acc +. col_value tb a) 0.0 tb.artificials
      in
      if infeas > 1.0e-5 then `Infeasible
      else begin
        List.iter (fun a -> tb.upper.(a) <- 0.0) tb.artificials;
        let first_artif =
          List.fold_left min tb.ncols tb.artificials
        in
        for r = 0 to tb.m - 1 do
          if tb.basis.(r) >= first_artif && Float.abs tb.beta.(r) <= feas_eps
          then begin
            (* smallest-index nonbasic column of the row's support with a
               usable coefficient *)
            let j = ref (-1) in
            let sup = tb.rsup.(r) in
            for ki = 0 to tb.rsup_len.(r) - 1 do
              let k = sup.(ki) in
              if
                k < first_artif
                && (!j < 0 || k < !j)
                && Float.abs tb.tab.(r).(k) > 100.0 *. pivot_eps
                && tb.stat.(k) <> Basic
              then j := k
            done;
            if !j >= 0 then begin
              let entering = !j in
              let entering_value =
                match tb.stat.(entering) with
                | At_lower -> 0.0
                | At_upper -> tb.upper.(entering)
                | Basic -> assert false
              in
              let leaving = tb.basis.(r) in
              tb.stat.(leaving) <- At_lower;
              tb.stat.(entering) <- Basic;
              tb.basis.(r) <- entering;
              tb.row_of_col.(leaving) <- -1;
              tb.row_of_col.(entering) <- r;
              pivot tb [ cost ] r entering;
              tb.cnt.pivots <- tb.cnt.pivots + 1;
              tb.beta.(r) <- entering_value
            end
          end
        done;
        let any_basic_artif = ref false in
        for r = 0 to tb.m - 1 do
          if tb.basis.(r) >= first_artif then any_basic_artif := true
        done;
        if not !any_basic_artif then tb.act <- first_artif;
        `Feasible
      end
    | `Unbounded -> `Infeasible (* phase-I objective is bounded below *)
    | `Iteration_limit -> `Limit
  end

(* Tiny deterministic perturbation of the nonbasic reduced costs, in the
   dual-feasible direction for each column's current status. Breaks the
   massive ratio-degeneracy (many exactly-zero reduced costs) that makes
   the bounded dual simplex cycle on assignment-like models; magnitudes
   stay below [cost_eps] so primal pricing is unaffected, and objective
   values are always re-evaluated from the original expression. *)
let perturb_costs tb =
  for j = 0 to tb.ncols - 1 do
    match tb.stat.(j) with
    | Basic -> ()
    | At_lower ->
      tb.cost.(j) <- tb.cost.(j) +. (1.0e-9 *. float_of_int (1 + (j * 31 mod 127)))
    | At_upper ->
      tb.cost.(j) <- tb.cost.(j) -. (1.0e-9 *. float_of_int (1 + (j * 31 mod 127)))
  done

(* Install the problem's objective as the phase-2 reduced-cost row. *)
let install_objective tb =
  let dir, obj_expr = Problem.objective tb.problem in
  tb.obj_sign <-
    (match dir with Problem.Minimize -> 1.0 | Problem.Maximize -> -1.0);
  let c2 = Array.make tb.ncols 0.0 in
  Linexpr.iter_terms
    (fun c j ->
      let col = tb.col_of_var.(j) in
      if col >= 0 then c2.(col) <- c2.(col) +. (tb.obj_sign *. c))
    obj_expr;
  tb.cost <- reduced_costs tb c2;
  perturb_costs tb;
  (* phase change: restart the pricing state. The candidate list belongs
     to the previous cost row, and the devex reference framework starts
     fresh on the real objective (phase I priced with Dantzig, so the
     weights are still the unit framework unless a caller re-installs an
     objective mid-run — reset keeps that path honest too). *)
  tb.ncands <- 0;
  tb.since_refresh <- 0;
  Array.fill tb.dw 0 tb.ncols 1.0

(* Phase II on the installed objective. *)
let phase2 tb ~max_iters ~deadline =
  run_phase tb tb.cost ~pricing:tb.pricing ~extra_costs:[] ~max_iters
    ~deadline

(* Extract the solution in original-variable space. *)
let solution tb =
  let yval = Array.make tb.ncols 0.0 in
  for j = 0 to tb.ncols - 1 do
    yval.(j) <-
      (match tb.stat.(j) with
       | At_lower -> 0.0
       | At_upper -> tb.upper.(j)
       | Basic -> 0.0)
  done;
  for i = 0 to tb.m - 1 do
    yval.(tb.basis.(i)) <- tb.beta.(i)
  done;
  Array.init tb.n (fun j ->
      let col = tb.col_of_var.(j) in
      if col >= 0 then tb.shift.(j) +. yval.(col) else tb.shift.(j))

let objective_value tb =
  let _, obj_expr = Problem.objective tb.problem in
  Linexpr.eval obj_expr (solution tb)

(* ------------------------------------------------------------------ *)
(* Warm restarts: bounded dual simplex                                 *)
(* ------------------------------------------------------------------ *)

(* Bounded dual simplex: repair primal feasibility after bound changes
   while the reduced costs (unchanged by bound moves) stay dual feasible.
   On success the basis is optimal again. The entering scan walks the
   leaving row's nonzero support instead of every active column.

   Repeated dense row updates drift the basic values by ~1e-6 over a few
   hundred pivots; a leftover violation of that size routinely has no
   eligible entering column (the drift is noise, not geometry). Declaring
   [`Infeasible] there would discard the whole warm solve, so violations
   up to [drop_eps] are snapped onto their bound instead — the same
   magnitude of error the cold path's solutions already carry. *)
let drop_eps = 1.0e-5

let dual_restore tb ~max_iters ~deadline =
  let start_iters = tb.iters in
  let reperturbed = ref false in
  let rec loop () =
    let done_iters = tb.iters - start_iters in
    if done_iters > max_iters then `Limit
    else if tb.iters land 127 = 0 && Clock.now () > deadline then `Limit
    else begin
      (* after a long stall, refresh the anti-degeneracy perturbation once,
         then fall back to smallest-index selections *)
      let stalled = done_iters > 2 * tb.m in
      if stalled && not !reperturbed then begin
        reperturbed := true;
        perturb_costs tb
      end;
      (* violated basic variable: most violated, or smallest row index when
         stalled (the leaving-row choice is free; correctness is preserved) *)
      let r = ref (-1) in
      let worst = ref feas_eps in
      let over_upper = ref false in
      (try
         for i = 0 to tb.m - 1 do
           let b = tb.beta.(i) in
           if -.b > !worst then begin
             worst := -.b;
             r := i;
             over_upper := false;
             if stalled then raise Exit
           end;
           let u = tb.upper.(tb.basis.(i)) in
           if u < infinity && b -. u > !worst then begin
             worst := b -. u;
             r := i;
             over_upper := true;
             if stalled then raise Exit
           end
         done
       with Exit -> ());
      if !r < 0 then `Feasible
      else begin
        let r = !r in
        let row = tb.tab.(r) in
        (* eligible entering columns from the row's nonzero support; the
           dual ratio test (minimal |cost/a|, ties to the smallest index)
           must be respected even when stalled — entering on a non-minimal
           ratio would break dual feasibility and hence the optimality of
           the repaired basis. Columns fixed at width 0 (e.g.
           branching-fixed binaries) can never usefully enter. *)
        let entering = ref (-1) in
        let best_ratio = ref infinity in
        let sup = tb.rsup.(r) in
        let act = tb.act in
        for ki = 0 to tb.rsup_len.(r) - 1 do
          let j = Array.unsafe_get sup ki in
          if
            j < act && tb.enterable.(j) && tb.stat.(j) <> Basic
            && tb.upper.(j) > 0.0
          then begin
            let a = row.(j) in
            if Float.abs a > pivot_eps then begin
              let eligible =
                if not !over_upper then
                  (* beta_r below lower: raise it *)
                  match tb.stat.(j) with
                  | At_lower -> a < 0.0
                  | At_upper -> a > 0.0
                  | Basic -> false
                else
                  match tb.stat.(j) with
                  | At_lower -> a > 0.0
                  | At_upper -> a < 0.0
                  | Basic -> false
              in
              if eligible then begin
                let ratio = Float.abs (tb.cost.(j) /. a) in
                if
                  ratio < !best_ratio -. 1.0e-12
                  || (ratio <= !best_ratio +. 1.0e-12
                      && (!entering < 0 || j < !entering))
                then begin
                  if ratio < !best_ratio then best_ratio := ratio;
                  entering := j
                end
              end
            end
          end
        done;
        if !entering < 0 then
          if !worst <= drop_eps then begin
            (* numerical drift, not structural infeasibility: no pivot can
               remove it, so absorb it into the bound and keep repairing *)
            tb.beta.(r) <-
              (if !over_upper then tb.upper.(tb.basis.(r)) else 0.0);
            loop ()
          end
          else `Infeasible
        else begin
          let j = !entering in
          let target = if !over_upper then tb.upper.(tb.basis.(r)) else 0.0 in
          let t = (tb.beta.(r) -. target) /. row.(j) in
          tb.iters <- tb.iters + 1;
          (* the leaving variable rests at the violated bound *)
          let leaving = tb.basis.(r) in
          let entering_bound_value =
            match tb.stat.(j) with
            | At_lower -> 0.0
            | At_upper -> tb.upper.(j)
            | Basic -> assert false
          in
          for i = 0 to tb.m - 1 do
            if i <> r then begin
              let a = tb.tab.(i).(j) in
              if a <> 0.0 then tb.beta.(i) <- tb.beta.(i) -. (a *. t)
            end
          done;
          tb.stat.(leaving) <- (if !over_upper then At_upper else At_lower);
          tb.stat.(j) <- Basic;
          tb.basis.(r) <- j;
          tb.row_of_col.(leaving) <- -1;
          tb.row_of_col.(j) <- r;
          pivot tb [ tb.cost ] r j;
          tb.cnt.dual_pivots <- tb.cnt.dual_pivots + 1;
          tb.beta.(r) <- entering_bound_value +. t;
          loop ()
        end
      end
    end
  in
  loop ()

(* Composite phase I: primal simplex on the piecewise-linear total
   infeasibility  w = sum max(0, -beta_i) + sum max(0, beta_i - u_i).
   Unlike the artificial phase I it starts from ANY basis, and unlike
   {!dual_restore} its steering does not depend on the problem's reduced
   costs — on the mostly-zero objectives of this MILP family the dual
   repair is completely dual-degenerate (every ratio ~0) and wanders,
   while w's gradient always points at feasibility. Used by {!restore}
   when the budgeted dual repair stalls.

   Each iteration prices the infeasibility objective over the violated
   rows' supports, enters the best improving column (Dantzig; smallest
   index after a stall), and stops at the first breakpoint: a feasible
   basic reaching a bound, a violated basic reaching the bound it
   violates (it becomes feasible there), or the entering column's own
   width (a bound flip — no pivot). The phase-2 cost row is carried
   through every pivot, so a successful repair continues straight into
   {!phase2}. *)
let primal_repair tb ~max_iters ~deadline =
  let m = tb.m in
  let d = Array.make tb.act 0.0 in
  let start_iters = tb.iters in
  let best_w = ref infinity in
  let last_gain = ref 0 in
  let rec loop () =
    let done_iters = tb.iters - start_iters in
    if done_iters > max_iters then `Limit
    else if tb.iters land 127 = 0 && Clock.now () > deadline then `Limit
    else begin
      (* total infeasibility and the violated-row gradient *)
      Array.fill d 0 tb.act 0.0;
      let w = ref 0.0 and worst = ref 0.0 and nviol = ref 0 in
      for i = 0 to m - 1 do
        let b = tb.beta.(i) in
        let u = tb.upper.(tb.basis.(i)) in
        let viol = if -.b > feas_eps then -.b
                   else if u < infinity && b -. u > feas_eps then b -. u
                   else 0.0
        in
        if viol > 0.0 then begin
          incr nviol;
          w := !w +. viol;
          if viol > !worst then worst := viol;
          let sgn = if b < 0.0 then 1.0 else -1.0 in
          let row = tb.tab.(i) in
          let sup = tb.rsup.(i) in
          for ki = 0 to tb.rsup_len.(i) - 1 do
            let k = Array.unsafe_get sup ki in
            if k < tb.act then
              d.(k) <- d.(k) +. (sgn *. Array.unsafe_get row k)
          done
        end
      done;
      if !nviol = 0 then `Feasible
      else if !worst <= drop_eps then begin
        (* only drift-sized violations remain: absorb them *)
        for i = 0 to m - 1 do
          let b = tb.beta.(i) in
          if b < 0.0 then tb.beta.(i) <- 0.0
          else begin
            let u = tb.upper.(tb.basis.(i)) in
            if u < infinity && b > u then tb.beta.(i) <- u
          end
        done;
        `Feasible
      end
      else begin
        if !w < !best_w -. feas_eps then begin
          best_w := !w;
          last_gain := done_iters
        end;
        let stalled = done_iters - !last_gain > 2 * m in
        (* entering: largest |d| improving column (smallest index when
           stalled, Bland-style) *)
        let j = ref (-1) and best = ref cost_eps in
        (try
           for k = 0 to tb.act - 1 do
             if tb.enterable.(k) && tb.upper.(k) > 0.0 then begin
               let improving =
                 match tb.stat.(k) with
                 | At_lower -> -.d.(k) > !best
                 | At_upper -> d.(k) > !best
                 | Basic -> false
               in
               if improving then begin
                 j := k;
                 if stalled then raise Exit;
                 best := Float.abs d.(k)
               end
             end
           done
         with Exit -> ());
        if !j < 0 then `Infeasible
        else begin
          let j = !j in
          (* s = +1: x_j rises off its lower bound; -1: falls off its
             upper. Basic values move at rate -c_i per unit step. *)
          let s = if tb.stat.(j) = At_lower then 1.0 else -1.0 in
          let col = Array.init m (fun i -> tb.tab.(i).(j)) in
          let step = ref infinity and block = ref (-1) in
          let block_at_upper = ref false in
          for i = 0 to m - 1 do
            let c = s *. col.(i) in
            if Float.abs c > pivot_eps then begin
              let b = tb.beta.(i) in
              let u = tb.upper.(tb.basis.(i)) in
              if -.b > feas_eps then begin
                (* below lower: blocks where it becomes feasible *)
                if c < 0.0 then begin
                  let t = b /. c in
                  if t < !step then begin
                    step := t; block := i; block_at_upper := false
                  end
                end
              end
              else if u < infinity && b -. u > feas_eps then begin
                if c > 0.0 then begin
                  let t = (b -. u) /. c in
                  if t < !step then begin
                    step := t; block := i; block_at_upper := true
                  end
                end
              end
              else if c > 0.0 then begin
                (* feasible, moving down: blocks at its lower bound *)
                let t = Float.max 0.0 b /. c in
                if t < !step then begin
                  step := t; block := i; block_at_upper := false
                end
              end
              else if u < infinity then begin
                (* feasible, moving up: blocks at its upper bound *)
                let t = Float.max 0.0 (u -. b) /. -.c in
                if t < !step then begin
                  step := t; block := i; block_at_upper := true
                end
              end
            end
          done;
          if tb.upper.(j) < !step then begin
            (* the entering column hits its own far bound first: flip it
               across, no basis change *)
            let t = tb.upper.(j) in
            for i = 0 to m - 1 do
              let c = s *. col.(i) in
              if c <> 0.0 then tb.beta.(i) <- tb.beta.(i) -. (c *. t)
            done;
            tb.stat.(j) <- (if s > 0.0 then At_upper else At_lower);
            tb.iters <- tb.iters + 1;
            tb.cnt.pivots <- tb.cnt.pivots + 1;
            loop ()
          end
          else if !block < 0 then `Infeasible (* w unbounded: numerical *)
          else begin
            let r = !block in
            let t = !step in
            for i = 0 to m - 1 do
              if i <> r then begin
                let c = s *. col.(i) in
                if c <> 0.0 then tb.beta.(i) <- tb.beta.(i) -. (c *. t)
              end
            done;
            let leaving = tb.basis.(r) in
            let entry_value = if s > 0.0 then 0.0 else tb.upper.(j) in
            tb.stat.(leaving) <-
              (if !block_at_upper then At_upper else At_lower);
            tb.stat.(j) <- Basic;
            tb.basis.(r) <- j;
            tb.row_of_col.(leaving) <- -1;
            tb.row_of_col.(j) <- r;
            pivot tb [ tb.cost ] r j;
            tb.iters <- tb.iters + 1;
            tb.cnt.pivots <- tb.cnt.pivots + 1;
            tb.beta.(r) <- entry_value +. (s *. t);
            loop ()
          end
        end
      end
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Basis snapshots: compact warm-start state within one search        *)
(* ------------------------------------------------------------------ *)

(* A basis snapshot is combinatorial, not numerical: which entity each
   tableau row holds basic plus which nonbasic variables rest at their
   upper bound. It deliberately excludes the dense tableau — [restore]
   refactorizes from the original rows, so numerical drift accumulated in
   the donor tableau never transfers. Basic structural columns are
   recorded by their original variable id (column indices shift when
   branching fixes a variable and [build] eliminates its column); slack
   columns by their OWNING ROW, not their column offset: [build]
   normalizes each row to a nonnegative RHS, and branching bounds shift
   the RHS, so the slack/artificial column layout is different between a
   parent and its children — but "the slack of row r" names the same
   mathematical variable under either orientation (a.x + s = b and
   -a.x - s = -b share s). Basic artificials are recorded as [Bnone]:
   the restored tableau keeps the fresh basic for those rows and the
   dual repair drives out any residual infeasibility. *)
module Basis = struct
  type entry =
    | Bvar of int    (* structural column, by original variable id *)
    | Bslack of int  (* slack column, by owning row *)
    | Bnone          (* artificial, not restorable: keep the fresh basic *)

  type t = {
    rows : entry array;    (* basic entity per tableau row *)
    at_upper : int array;  (* variable ids nonbasic at their upper bound *)
    bm : int;              (* donor row count *)
    bn : int;              (* donor variable count *)
    bsig : int;            (* donor original-sense fingerprint *)
  }
end

(* Inverse of [col_of_var]: the variable owning each structural column. *)
let var_of_col tb =
  let inv = Array.make tb.nstruct (-1) in
  Array.iteri (fun v c -> if c >= 0 then inv.(c) <- v) tb.col_of_var;
  inv

let snapshot tb : Basis.t =
  let inv = var_of_col tb in
  (* owning row of each slack column *)
  let slack_row = Array.make tb.ncols (-1) in
  Array.iteri
    (fun r c -> if c >= 0 then slack_row.(c) <- r)
    tb.row_slack;
  let rows =
    Array.init tb.m (fun r ->
        let col = tb.basis.(r) in
        if col >= tb.nstruct then
          match slack_row.(col) with
          | -1 -> Basis.Bnone (* artificial *)
          | r' -> Basis.Bslack r'
        else Basis.Bvar inv.(col))
  in
  let ups = ref [] in
  for c = tb.nstruct - 1 downto 0 do
    if tb.stat.(c) = At_upper && inv.(c) >= 0 then ups := inv.(c) :: !ups
  done;
  {
    Basis.rows;
    at_upper = Array.of_list !ups;
    bm = tb.m;
    bn = tb.n;
    bsig = tb.sense_sig;
  }

(* Crash pivots tolerate less than regular ratio-tested pivots: a small
   pivot element here only degrades the warm start (the row keeps its
   fresh slack/artificial basic), never correctness. *)
let crash_eps = 1.0e-6

(* Force the saved basis into a freshly built tableau. [beta] is carried
   through each elimination as an extra column, so the basic values stay
   exact for the partial basis installed so far.

   The snapshot is used as a column SET, not as the donor's row-column
   matching: the LP vertex is determined by which columns are basic, and
   the row a column occupies is internal bookkeeping. Reproducing the
   donor's matching would force structurally-zero pivots (a slack basic
   in a foreign row starts as a 0 entry and only fills in), so instead
   each wanted column is eliminated into the free row with the LARGEST
   pivot element — ordinary Gaussian elimination with partial pivoting,
   one column at a time. Columns whose best remaining pivot is still
   tiny (column gone, duplicate, or a numerically dependent tail) are
   left nonbasic; their rows keep the fresh slack/artificial basic and
   the repair phases deal with the residual. *)
let crash_basis tb (b : Basis.t) =
  let used = Array.make tb.m false in
  let wanted = ref [] in
  for r = tb.m - 1 downto 0 do
    let c =
      match b.Basis.rows.(r) with
      | Basis.Bnone -> -1
      | Basis.Bslack r' -> if r' < tb.m then tb.row_slack.(r') else -1
      | Basis.Bvar v -> tb.col_of_var.(v)
    in
    if c >= 0 then
      if tb.stat.(c) = Basic then begin
        (* already basic (e.g. the fresh slack the donor also kept):
           pin its row *)
        let i = tb.row_of_col.(c) in
        if i >= 0 then used.(i) <- true
      end
      else wanted := c :: !wanted
  done;
  List.iter
    (fun c ->
      if tb.stat.(c) <> Basic then begin
        (* best free row for this column (partial pivoting) *)
        let best = ref crash_eps and br = ref (-1) in
        for i = 0 to tb.m - 1 do
          if not used.(i) then begin
            let p = Float.abs tb.tab.(i).(c) in
            if p > !best then begin
              best := p;
              br := i
            end
          end
        done;
        if !br >= 0 then begin
          let r = !br in
          used.(r) <- true;
          let p = tb.tab.(r).(c) in
          let brv = tb.beta.(r) /. p in
          for i = 0 to tb.m - 1 do
            if i <> r then begin
              let a = tb.tab.(i).(c) in
              if a <> 0.0 then tb.beta.(i) <- tb.beta.(i) -. (a *. brv)
            end
          done;
          tb.beta.(r) <- brv;
          let leaving = tb.basis.(r) in
          tb.stat.(leaving) <- At_lower;
          tb.stat.(c) <- Basic;
          tb.basis.(r) <- c;
          tb.row_of_col.(leaving) <- -1;
          tb.row_of_col.(c) <- r;
          pivot tb [] r c
        end
      end)
    !wanted

(* Reoptimize [p] starting from the saved basis [b]: build the start
   tableau under the (possibly changed) bounds, crash the basis in,
   restore the nonbasic at-upper rests, skip phase I entirely (artificial
   bounds are pinned to 0 and any residual infeasibility is the dual
   simplex's job), then repair primal feasibility with the bounded dual
   simplex and polish with a primal phase II — which certifies optimality
   by the same full-refresh scan as a cold solve, so a warm [`Optimal] is
   exactly as trustworthy. [`Cold_needed] means the basis did not carry
   over (structure mismatch, or the dual repair stalled/claimed
   infeasibility it cannot certify — a restored cost row need not be
   exactly dual feasible): callers fall back to the cold path.

   A basis only ever comes from a node of the same search or from a
   checkpoint of it. The row-count / variable-count / sense fingerprint
   check guards the checkpoint case: a checkpoint file comes from outside
   the program. *)
let restore ?counters ?bounds ~max_iters ~deadline (b : Basis.t)
    (p : Problem.t) =
  match build ?counters ?bounds p with
  | None -> `Infeasible_bounds
  | Some tb ->
    if
      b.Basis.bm <> tb.m || b.Basis.bn <> tb.n
      || b.Basis.bsig <> tb.sense_sig
    then `Cold_needed
    else begin
      crash_basis tb b;
      Array.iter
        (fun v ->
          match tb.col_of_var.(v) with
          | c when c >= 0 && tb.stat.(c) = At_lower && tb.upper.(c) < infinity
            ->
            let u = tb.upper.(c) in
            tb.stat.(c) <- At_upper;
            if u <> 0.0 then
              for i = 0 to tb.m - 1 do
                let a = tb.tab.(i).(c) in
                if a <> 0.0 then tb.beta.(i) <- tb.beta.(i) -. (a *. u)
              done
          | _ -> ())
        b.Basis.at_upper;
      (* phase I is skipped: pin the artificials to width 0 (the dual
         repair drives out any that sit basic at a nonzero value — they
         are not enterable, so they never come back) and shrink the
         active width when none remained basic. *)
      List.iter (fun a -> tb.upper.(a) <- 0.0) tb.artificials;
      let first_artif = List.fold_left min tb.ncols tb.artificials in
      let any_basic_artif = ref false in
      for r = 0 to tb.m - 1 do
        if tb.basis.(r) >= first_artif then any_basic_artif := true
      done;
      if not !any_basic_artif then tb.act <- first_artif;
      install_objective tb;
      let polish () =
        match phase2 tb ~max_iters ~deadline with
        | `Optimal -> `Optimal tb
        | `Unbounded -> `Unbounded
        | `Iteration_limit ->
          if Clock.now () > deadline then `Limit else `Cold_needed
      in
      (* the dual repair is ideal when few basics are violated and the
         reduced costs steer (small pivot counts, preserved optimality),
         but on near-zero objectives it is fully dual-degenerate and can
         wander — budget it by the damage, then hand a stalled repair to
         the composite primal phase I, whose gradient cannot degenerate *)
      let nviol = ref 0 in
      for i = 0 to tb.m - 1 do
        let bta = tb.beta.(i) in
        let u = tb.upper.(tb.basis.(i)) in
        if -.bta > feas_eps || (u < infinity && bta -. u > feas_eps) then
          incr nviol
      done;
      if !nviol > max 16 (tb.m / 16) then
        (* the reconstruction is too damaged to be worth repairing — on
           badly scaled models (large mixed-magnitude entries, e.g. after
           presolve's bound-shifting) the dense eliminations can leave
           hundreds of rows violated by bound-sized amounts, and pivoting
           all of them back costs more than the cold solve the caller
           falls back to *)
        `Cold_needed
      else begin
      let dual_budget = min max_iters (max 100 (8 * !nviol)) in
      match dual_restore tb ~max_iters:dual_budget ~deadline with
      | `Infeasible ->
        (* possibly genuine, but the restored cost row is not guaranteed
           dual feasible, so the infeasibility proof does not stand on its
           own — let the caller confirm with a cold solve *)
        `Cold_needed
      | `Feasible -> polish ()
      | `Limit ->
        if Clock.now () > deadline then `Limit
        else begin
          match primal_repair tb ~max_iters ~deadline with
          | `Feasible -> polish ()
          | `Infeasible -> `Cold_needed
          | `Limit ->
            if Clock.now () > deadline then `Limit else `Cold_needed
        end
      end
    end
