(* Presolve: activity-based bound tightening, redundant-row elimination
   and early infeasibility detection.

   For every row, the minimal and maximal activities implied by the
   variable bounds give three classic reductions:
   - a row whose worst-case activity already satisfies it is redundant;
   - a row whose best-case activity still violates it proves infeasibility;
   - each variable's bound can be tightened against the residual activity
     of the rest of the row (integer bounds additionally round inward).
   The pass iterates to a fixpoint (with a round cap) and produces a new,
   smaller problem over the same variable ids, so solutions transfer
   verbatim. *)

let src = Logs.Src.create "milp.presolve" ~doc:"MILP presolve"

module Log = (val Logs.src_log src : Logs.LOG)

type result =
  | Reduced of Problem.t
  | Infeasible of string  (** name of the witnessing row *)

type stats = {
  rounds : int;
  rows_dropped : int;
  bounds_tightened : int;
}

let eps = 1.0e-9

(* Fixpoint rounds before presolve stops tightening. *)
let max_rounds = 10

(* (min, max) activity of [expr] under the bounds in [lo]/[hi]. *)
let activity_bounds lo hi expr =
  let amin = ref 0.0 and amax = ref 0.0 in
  Linexpr.iter_terms
    (fun c j ->
      if c > 0.0 then begin
        amin := !amin +. (c *. lo.(j));
        amax := !amax +. (c *. hi.(j))
      end
      else begin
        amin := !amin +. (c *. hi.(j));
        amax := !amax +. (c *. lo.(j))
      end)
    expr;
  (!amin, !amax)

let run (p : Problem.t) : result * stats =
  let n = Problem.num_vars p in
  let lo = Array.make n 0.0 and hi = Array.make n 0.0 in
  let kind = Array.make n Problem.Continuous in
  Problem.iter_vars
    (fun j k (l, h) ->
      kind.(j) <- k;
      lo.(j) <- l;
      hi.(j) <- h)
    p;
  let integral j =
    match kind.(j) with
    | Problem.Integer | Problem.Binary -> true
    | Problem.Continuous -> false
  in
  let tightened = ref 0 in
  let infeasible = ref None in
  let set_lo j v =
    let v = if integral j then Float.ceil (v -. eps) else v in
    if v > lo.(j) +. eps then begin
      lo.(j) <- v;
      incr tightened;
      if lo.(j) > hi.(j) +. eps then infeasible := Some "bounds"
    end
  in
  let set_hi j v =
    let v = if integral j then Float.floor (v +. eps) else v in
    if v < hi.(j) -. eps then begin
      hi.(j) <- v;
      incr tightened;
      if lo.(j) > hi.(j) +. eps then infeasible := Some "bounds"
    end
  in
  (* one pass over a row in <= form (expr <= rhs): redundancy check +
     per-variable tightening; returns `Redundant when provably slack *)
  let process_le name expr rhs =
    let amin, amax = activity_bounds lo hi expr in
    if amin > rhs +. 1.0e-7 then begin
      infeasible := Some name;
      `Keep
    end
    else if amax <= rhs +. eps then `Redundant
    else begin
      if amin > neg_infinity then
        Linexpr.iter_terms
          (fun c j ->
            (* residual minimal activity of the other terms *)
            let resid =
              amin -. (if c > 0.0 then c *. lo.(j) else c *. hi.(j))
            in
            if Float.abs c > eps && resid > neg_infinity then
              if c > 0.0 then set_hi j ((rhs -. resid) /. c)
              else set_lo j ((rhs -. resid) /. c))
          expr;
      `Keep
    end
  in
  let keep = Array.make (Problem.num_constrs p) true in
  let rounds = ref 0 in
  let changed = ref true in
  while !changed && !rounds < max_rounds && !infeasible = None do
    incr rounds;
    changed := false;
    let before = !tightened in
    let i = ref 0 in
    Problem.iter_constrs
      (fun c ->
        let idx = !i in
        incr i;
        if keep.(idx) && !infeasible = None then begin
          let drop_le =
            match c.Problem.c_sense with
            | Problem.Le -> process_le c.Problem.c_name c.Problem.c_expr c.Problem.c_rhs = `Redundant
            | Problem.Ge ->
              process_le c.Problem.c_name
                (Linexpr.neg c.Problem.c_expr)
                (-.c.Problem.c_rhs)
              = `Redundant
            | Problem.Eq ->
              let r1 =
                process_le c.Problem.c_name c.Problem.c_expr c.Problem.c_rhs
              in
              let r2 =
                process_le c.Problem.c_name
                  (Linexpr.neg c.Problem.c_expr)
                  (-.c.Problem.c_rhs)
              in
              r1 = `Redundant && r2 = `Redundant
          in
          if drop_le then begin
            keep.(idx) <- false;
            changed := true
          end
        end)
      p;
    if !tightened > before then changed := true
  done;
  let rows_dropped =
    Array.fold_left (fun a k -> if k then a else a + 1) 0 keep
  in
  let stats = { rounds = !rounds; rows_dropped; bounds_tightened = !tightened } in
  match !infeasible with
  | Some name -> (Infeasible name, stats)
  | None ->
    (* rebuild: same variables (ids preserved), tightened bounds, only the
       surviving rows *)
    let q = Problem.create ~big_m:(Problem.big_m p) () in
    Problem.iter_vars
      (fun j k _ ->
        ignore
          (Problem.add_var ~name:(Problem.var_name p j) ~lo:lo.(j) ~hi:hi.(j) q
             k))
      p;
    let i = ref 0 in
    Problem.iter_constrs
      (fun c ->
        let idx = !i in
        incr i;
        if keep.(idx) then
          ignore
            (Problem.add_constr ~name:c.Problem.c_name ~id:c.Problem.c_id q
               c.Problem.c_expr c.Problem.c_sense c.Problem.c_rhs))
      p;
    let dir, obj = Problem.objective p in
    Problem.set_objective q dir obj;
    Log.debug (fun f ->
        f "presolve: %d rounds, %d rows dropped, %d bounds tightened"
          stats.rounds stats.rows_dropped stats.bounds_tightened);
    (Reduced q, stats)
