(* Mutable MILP model builder. *)

type var_kind = Continuous | Integer | Binary

type sense = Le | Ge | Eq

type dir = Minimize | Maximize

type var_info = {
  v_name : string;
  mutable v_kind : var_kind;
  mutable v_lo : float;
  mutable v_hi : float;
}

type constr = {
  c_name : string;
  c_id : int; (* stable origin id; survives presolve row elimination *)
  c_expr : Linexpr.t; (* constant part already folded into [c_rhs] *)
  c_sense : sense;
  c_rhs : float;
}

type t = {
  vars : var_info Vec.t;
  constrs : constr Vec.t;
  mutable objective : dir * Linexpr.t;
  mutable default_big_m : float;
}

let dummy_var = { v_name = ""; v_kind = Continuous; v_lo = 0.0; v_hi = 0.0 }

let dummy_constr =
  { c_name = ""; c_id = 0; c_expr = Linexpr.zero; c_sense = Le; c_rhs = 0.0 }

let create ?(big_m = 1.0e6) () =
  {
    vars = Vec.create ~dummy:dummy_var;
    constrs = Vec.create ~dummy:dummy_constr;
    objective = (Minimize, Linexpr.zero);
    default_big_m = big_m;
  }

let big_m t = t.default_big_m

let num_vars t = Vec.length t.vars
let num_constrs t = Vec.length t.constrs

(* Every variable is bounded below: the LP kernel shifts each one onto a
   column with lower bound 0 and has no free or upper-only columns. *)
let add_var ?name ?(lo = 0.0) ?(hi = infinity) t kind =
  if lo = neg_infinity then invalid_arg "Problem.add_var: lo = -inf";
  if lo > hi then invalid_arg "Problem.add_var: lo > hi";
  let lo, hi =
    match kind with
    | Binary -> (Float.max 0.0 lo, Float.min 1.0 hi)
    | Integer | Continuous -> (lo, hi)
  in
  let idx = Vec.length t.vars in
  let v_name =
    match name with Some n -> n | None -> Printf.sprintf "x%d" idx
  in
  ignore (Vec.push t.vars { v_name; v_kind = kind; v_lo = lo; v_hi = hi });
  idx

let binary ?name t = add_var ?name t Binary

let continuous ?name ?lo ?hi t = add_var ?name ?lo ?hi t Continuous

let integer ?name ?lo ?hi t = add_var ?name ?lo ?hi t Integer

let var_name t v = (Vec.get t.vars v).v_name
let var_bounds t v =
  let vi = Vec.get t.vars v in
  (vi.v_lo, vi.v_hi)

let set_bounds ?lo ?hi t v =
  let vi = Vec.get t.vars v in
  (match lo with
   | Some l when l = neg_infinity -> invalid_arg "Problem.set_bounds: lo = -inf"
   | Some l -> vi.v_lo <- l
   | None -> ());
  (match hi with Some h -> vi.v_hi <- h | None -> ());
  if vi.v_lo > vi.v_hi then invalid_arg "Problem.set_bounds: lo > hi"

let add_constr ?name ?id t expr sense rhs =
  let c_rhs = rhs -. Linexpr.constant expr in
  let c_expr = Linexpr.add_const expr (-.Linexpr.constant expr) in
  let idx = Vec.length t.constrs in
  let c_name =
    match name with Some n -> n | None -> Printf.sprintf "c%d" idx
  in
  let c_id = match id with Some i -> i | None -> idx in
  ignore (Vec.push t.constrs { c_name; c_id; c_expr; c_sense = sense; c_rhs });
  idx

let set_objective t dir expr = t.objective <- (dir, expr)
let objective t = t.objective

let iter_constrs f t = Vec.iter f t.constrs
let iter_vars f t = Vec.iteri (fun i vi -> f i vi.v_kind (vi.v_lo, vi.v_hi)) t.vars

(* ------------------------------------------------------------------ *)
(* Logic / big-M helpers                                               *)
(* ------------------------------------------------------------------ *)

(* b = 1 implies expr <= rhs: encoded as expr <= rhs + M (1 - b). *)
let add_implies_le ?name ?m t b expr rhs =
  let m = match m with Some m -> m | None -> t.default_big_m in
  ignore (add_constr ?name t (Linexpr.add_term expr m b) Le (rhs +. m))

(* b = 1 implies expr >= rhs: encoded as expr >= rhs - M (1 - b). *)
let add_implies_ge ?name ?m t b expr rhs =
  let m = match m with Some m -> m | None -> t.default_big_m in
  ignore (add_constr ?name t (Linexpr.add_term expr (-.m) b) Ge (rhs -. m))

(* ------------------------------------------------------------------ *)
(* Validation and export                                               *)
(* ------------------------------------------------------------------ *)

type issue =
  | Empty_constraint of string
  | Unbounded_integer of string
  | Bad_bounds of string

let validate t =
  let issues = ref [] in
  Vec.iter
    (fun c ->
      if Linexpr.is_constant c.c_expr then
        issues := Empty_constraint c.c_name :: !issues)
    t.constrs;
  Vec.iter
    (fun vi ->
      if vi.v_lo > vi.v_hi then issues := Bad_bounds vi.v_name :: !issues;
      match vi.v_kind with
      | Integer | Binary ->
        if vi.v_hi = infinity then
          issues := Unbounded_integer vi.v_name :: !issues
      | Continuous -> ())
    t.vars;
  List.rev !issues

let pp_issue ppf = function
  | Empty_constraint n -> Fmt.pf ppf "constraint %s has no variables" n
  | Unbounded_integer n -> Fmt.pf ppf "integer variable %s is unbounded" n
  | Bad_bounds n -> Fmt.pf ppf "variable %s has lo > hi" n

(* Writes the model in CPLEX LP format, readable by cplex/gurobi/glpk for
   external cross-checking of small instances. It is also the canonical
   text that [Resilience.Checkpoint.fingerprint] hashes, so its output
   for a given model must never change. *)
let to_lp_string t =
  let buf = Buffer.create 4096 in
  let name v = (Vec.get t.vars v).v_name in
  let bprint_expr e =
    let first = ref true in
    Linexpr.iter_terms
      (fun c v ->
        if !first then begin
          first := false;
          if c < 0.0 then Buffer.add_string buf "- "
        end
        else if c < 0.0 then Buffer.add_string buf " - "
        else Buffer.add_string buf " + ";
        let a = Float.abs c in
        if a = 1.0 then Buffer.add_string buf (name v)
        else Buffer.add_string buf (Printf.sprintf "%.12g %s" a (name v)))
      e;
    if !first then Buffer.add_string buf "0"
  in
  let dir, obj = t.objective in
  Buffer.add_string buf
    (match dir with Minimize -> "Minimize\n obj: " | Maximize -> "Maximize\n obj: ");
  if Linexpr.is_constant obj then Buffer.add_string buf "0"
  else bprint_expr obj;
  Buffer.add_string buf "\nSubject To\n";
  Vec.iter
    (fun c ->
      Buffer.add_string buf (" " ^ c.c_name ^ ": ");
      bprint_expr c.c_expr;
      let op = match c.c_sense with Le -> " <= " | Ge -> " >= " | Eq -> " = " in
      Buffer.add_string buf (Printf.sprintf "%s%.12g\n" op c.c_rhs))
    t.constrs;
  Buffer.add_string buf "Bounds\n";
  Vec.iter
    (fun vi ->
      let hi_s =
        if vi.v_hi = infinity then "+inf" else Printf.sprintf "%.12g" vi.v_hi
      in
      Buffer.add_string buf
        (Printf.sprintf " %.12g <= %s <= %s\n" vi.v_lo vi.v_name hi_s))
    t.vars;
  let generals =
    Vec.fold_left
      (fun acc vi ->
        match vi.v_kind with Integer -> vi.v_name :: acc | _ -> acc)
      [] t.vars
  in
  let binaries =
    Vec.fold_left
      (fun acc vi ->
        match vi.v_kind with Binary -> vi.v_name :: acc | _ -> acc)
      [] t.vars
  in
  if generals <> [] then begin
    Buffer.add_string buf "Generals\n";
    List.iter
      (fun n -> Buffer.add_string buf (" " ^ n ^ "\n"))
      (List.rev generals)
  end;
  if binaries <> [] then begin
    Buffer.add_string buf "Binaries\n";
    List.iter
      (fun n -> Buffer.add_string buf (" " ^ n ^ "\n"))
      (List.rev binaries)
  end;
  Buffer.add_string buf "End\n";
  Buffer.contents buf

(* Residual check of a full assignment: every bound, integrality
   requirement and constraint row re-evaluated from the model data, with
   the violation magnitude. The basis for independent certification of
   solver output (a solver bug or numerical drift shows up here). *)

type residual_kind = Bad_length | Bound | Integrality | Row

type residual = {
  res_kind : residual_kind;
  res_name : string;
  res_amount : float; (* violation beyond the tolerance's reach *)
}

let residuals ?(eps = 1.0e-6) t x =
  if Array.length x <> num_vars t then
    [
      {
        res_kind = Bad_length;
        res_name =
          Printf.sprintf "assignment has %d entries, model has %d variables"
            (Array.length x) (num_vars t);
        res_amount = Float.abs (float_of_int (Array.length x - num_vars t));
      };
    ]
  else begin
    let violations = ref [] in
    let push kind name amount =
      violations := { res_kind = kind; res_name = name; res_amount = amount } :: !violations
    in
    Vec.iteri
      (fun i vi ->
        if x.(i) < vi.v_lo -. eps then push Bound vi.v_name (vi.v_lo -. x.(i))
        else if x.(i) > vi.v_hi +. eps then push Bound vi.v_name (x.(i) -. vi.v_hi);
        match vi.v_kind with
        | Integer | Binary ->
          let frac = Float.abs (x.(i) -. Float.round x.(i)) in
          if frac > eps then push Integrality vi.v_name frac
        | Continuous -> ())
      t.vars;
    Vec.iter
      (fun c ->
        let v = Linexpr.eval c.c_expr x in
        let amount =
          match c.c_sense with
          | Le -> v -. c.c_rhs
          | Ge -> c.c_rhs -. v
          | Eq -> Float.abs (v -. c.c_rhs)
        in
        if amount > eps then push Row c.c_name amount)
      t.constrs;
    List.rev !violations
  end

let pp_residual ppf r =
  match r.res_kind with
  | Bad_length -> Fmt.pf ppf "%s" r.res_name
  | Bound -> Fmt.pf ppf "bounds of %s (by %g)" r.res_name r.res_amount
  | Integrality -> Fmt.pf ppf "integrality of %s (by %g)" r.res_name r.res_amount
  | Row -> Fmt.pf ppf "%s (by %g)" r.res_name r.res_amount

(* Feasibility check of a full assignment, used for warm incumbents and
   property tests. Kept as the residual list rendered to the historical
   string form. *)
let check_solution ?eps t x =
  if Array.length x <> num_vars t then
    invalid_arg "Problem.check_solution: wrong assignment length";
  List.map
    (fun r ->
      match r.res_kind with
      | Bad_length -> r.res_name
      | Bound -> Printf.sprintf "bounds of %s" r.res_name
      | Integrality -> Printf.sprintf "integrality of %s" r.res_name
      | Row -> r.res_name)
    (residuals ?eps t x)
