(* Tests for the MILP substrate: simplex correctness on hand-checked LPs,
   branch-and-bound vs. exhaustive enumeration, model-builder helpers. *)

module P = Milp.Problem
module L = Milp.Linexpr
module S = Milp.Simplex
module B = Milp.Branch_bound

let check_float = Alcotest.(check (float 1e-6))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let lp_opt ?bounds p =
  match S.solve ?bounds p with
  | S.Optimal { obj; x } -> (obj, x)
  | S.Infeasible -> Alcotest.fail "unexpected: infeasible"
  | S.Unbounded -> Alcotest.fail "unexpected: unbounded"
  | S.Iteration_limit -> Alcotest.fail "unexpected: iteration limit"

(* ------------------------------------------------------------------ *)
(* Linexpr                                                             *)
(* ------------------------------------------------------------------ *)

let test_linexpr_basic () =
  let e = L.of_list ~const:3.0 [ (2.0, 0); (-1.0, 1) ] in
  check_float "eval" 6.0 (L.eval e [| 2.0; 1.0 |]);
  let e2 = L.add e (L.var 1) in
  check_float "cancelled coeff" 0.0 (L.coeff_of e2 1);
  Alcotest.(check int) "terms after cancel" 1 (L.num_terms e2);
  let e3 = L.scale 2.0 e in
  check_float "scaled const" 6.0 (L.constant e3);
  check_float "scaled coeff" 4.0 (L.coeff_of e3 0)

let test_linexpr_sub_neg () =
  let a = L.of_list [ (1.0, 0); (2.0, 1) ] in
  let b = L.of_list [ (1.0, 0); (-3.0, 2) ] in
  let d = L.sub a b in
  check_float "x0 cancels" 0.0 (L.coeff_of d 0);
  check_float "x1 kept" 2.0 (L.coeff_of d 1);
  check_float "x2 negated" 3.0 (L.coeff_of d 2)

let test_linexpr_map_vars () =
  let e = L.of_list [ (1.0, 0); (2.0, 1) ] in
  (* merge both variables onto id 5 *)
  let m = L.map_vars (fun _ -> 5) e in
  check_float "merged" 3.0 (L.coeff_of m 5);
  Alcotest.(check int) "single term" 1 (L.num_terms m)

(* ------------------------------------------------------------------ *)
(* Simplex on hand-checked LPs                                         *)
(* ------------------------------------------------------------------ *)

(* max 3x + 2y  s.t. x + y <= 4, x <= 2, x,y >= 0  ->  (2,2), obj 10 *)
let test_lp_max_basic () =
  let p = P.create () in
  let x = P.continuous ~name:"x" ~lo:0.0 p in
  let y = P.continuous ~name:"y" ~lo:0.0 p in
  ignore (P.add_constr p (L.of_list [ (1.0, x); (1.0, y) ]) P.Le 4.0);
  ignore (P.add_constr p (L.var x) P.Le 2.0);
  P.set_objective p P.Maximize (L.of_list [ (3.0, x); (2.0, y) ]);
  let obj, sol = lp_opt p in
  check_float "objective" 10.0 obj;
  check_float "x" 2.0 sol.(x);
  check_float "y" 2.0 sol.(y)

(* min x + y  s.t. x + 2y >= 6, 3x + y >= 8  -> intersection (2,2), obj 4 *)
let test_lp_min_ge () =
  let p = P.create () in
  let x = P.continuous ~name:"x" ~lo:0.0 p in
  let y = P.continuous ~name:"y" ~lo:0.0 p in
  ignore (P.add_constr p (L.of_list [ (1.0, x); (2.0, y) ]) P.Ge 6.0);
  ignore (P.add_constr p (L.of_list [ (3.0, x); (1.0, y) ]) P.Ge 8.0);
  P.set_objective p P.Minimize (L.of_list [ (1.0, x); (1.0, y) ]);
  let obj, sol = lp_opt p in
  check_float "objective" 4.0 obj;
  check_float "x" 2.0 sol.(x);
  check_float "y" 2.0 sol.(y)

(* equality constraints: min 2x + 3y s.t. x + y = 10, x - y = 2 -> (6,4) *)
let test_lp_eq () =
  let p = P.create () in
  let x = P.continuous ~name:"x" ~lo:0.0 p in
  let y = P.continuous ~name:"y" ~lo:0.0 p in
  ignore (P.add_constr p (L.of_list [ (1.0, x); (1.0, y) ]) P.Eq 10.0);
  ignore (P.add_constr p (L.of_list [ (1.0, x); (-1.0, y) ]) P.Eq 2.0);
  P.set_objective p P.Minimize (L.of_list [ (2.0, x); (3.0, y) ]);
  let obj, sol = lp_opt p in
  check_float "objective" 24.0 obj;
  check_float "x" 6.0 sol.(x);
  check_float "y" 4.0 sol.(y)

let test_lp_infeasible () =
  let p = P.create () in
  let x = P.continuous ~lo:0.0 p in
  ignore (P.add_constr p (L.var x) P.Ge 5.0);
  ignore (P.add_constr p (L.var x) P.Le 3.0);
  P.set_objective p P.Minimize (L.var x);
  (match S.solve p with
   | S.Infeasible -> ()
   | _ -> Alcotest.fail "expected infeasible")

let test_lp_unbounded () =
  let p = P.create () in
  let x = P.continuous ~lo:0.0 p in
  let y = P.continuous ~lo:0.0 p in
  ignore (P.add_constr p (L.of_list [ (1.0, x); (-1.0, y) ]) P.Le 1.0);
  P.set_objective p P.Maximize (L.of_list [ (1.0, x); (1.0, y) ]);
  (match S.solve p with
   | S.Unbounded -> ()
   | _ -> Alcotest.fail "expected unbounded")

(* upper-bounded variables must not need extra rows: max x + y with
   x <= 1.5, y <= 2.5 and a single coupling row *)
let test_lp_upper_bounds () =
  let p = P.create () in
  let x = P.continuous ~lo:0.0 ~hi:1.5 p in
  let y = P.continuous ~lo:0.0 ~hi:2.5 p in
  ignore (P.add_constr p (L.of_list [ (1.0, x); (1.0, y) ]) P.Le 10.0);
  P.set_objective p P.Maximize (L.of_list [ (1.0, x); (1.0, y) ]);
  let obj, sol = lp_opt p in
  check_float "objective" 4.0 obj;
  check_float "x at ub" 1.5 sol.(x);
  check_float "y at ub" 2.5 sol.(y)

(* negative lower bounds shift onto columns at 0; every variable is
   bounded below, so a lower bound of -inf is refused *)
let test_lp_shifted_and_free () =
  let p = P.create () in
  let x = P.continuous ~lo:(-5.0) ~hi:5.0 p in
  let y = P.continuous ~lo:(-10.0) p in
  ignore (P.add_constr p (L.of_list [ (1.0, x); (1.0, y) ]) P.Eq 1.0);
  ignore (P.add_constr p (L.of_list [ (1.0, y) ]) P.Le 4.0);
  (* min x  => push x down; x = 1 - y >= 1 - 4 = -3 *)
  P.set_objective p P.Minimize (L.var x);
  let obj, sol = lp_opt p in
  check_float "objective" (-3.0) obj;
  check_float "x" (-3.0) sol.(x);
  check_float "y" 4.0 sol.(y);
  Alcotest.check_raises "add_var refuses lo = -inf"
    (Invalid_argument "Problem.add_var: lo = -inf") (fun () ->
      ignore (P.continuous ~lo:neg_infinity p));
  Alcotest.check_raises "set_bounds refuses lo = -inf"
    (Invalid_argument "Problem.set_bounds: lo = -inf") (fun () ->
      P.set_bounds ~lo:neg_infinity p y);
  Alcotest.(check (pair (float 0.0) (float 0.0)))
    "the default lower bound is 0" (0.0, infinity)
    (P.var_bounds p (P.continuous p))

(* degenerate LP that loops without anti-cycling care (Beale-like) *)
let test_lp_degenerate () =
  let p = P.create () in
  let x1 = P.continuous ~lo:0.0 p in
  let x2 = P.continuous ~lo:0.0 p in
  let x3 = P.continuous ~lo:0.0 p in
  let x4 = P.continuous ~lo:0.0 p in
  ignore
    (P.add_constr p
       (L.of_list [ (0.25, x1); (-8.0, x2); (-1.0, x3); (9.0, x4) ])
       P.Le 0.0);
  ignore
    (P.add_constr p
       (L.of_list [ (0.5, x1); (-12.0, x2); (-0.5, x3); (3.0, x4) ])
       P.Le 0.0);
  ignore (P.add_constr p (L.var x3) P.Le 1.0);
  P.set_objective p P.Maximize
    (L.of_list [ (0.75, x1); (-20.0, x2); (0.5, x3); (-6.0, x4) ]);
  let obj, _ = lp_opt p in
  check_float "objective" 1.25 obj

(* solve with per-node bound overrides, as branch-and-bound does *)
let test_lp_bounds_override () =
  let p = P.create () in
  let x = P.continuous ~lo:0.0 ~hi:10.0 p in
  P.set_objective p P.Maximize (L.var x);
  let lo = [| 0.0 |] and hi = [| 3.0 |] in
  let obj, _ = lp_opt ~bounds:(lo, hi) p in
  check_float "tightened ub" 3.0 obj;
  (* contradictory overrides are infeasible *)
  (match S.solve ~bounds:([| 5.0 |], [| 3.0 |]) p with
   | S.Infeasible -> ()
   | _ -> Alcotest.fail "expected infeasible bounds")

(* ------------------------------------------------------------------ *)
(* Branch and bound                                                    *)
(* ------------------------------------------------------------------ *)

let milp_opt ?incumbent p =
  let s = B.solve ?incumbent ~time_limit_s:30.0 p in
  match (s.B.status, s.B.obj, s.B.x) with
  | B.Optimal, Some obj, Some x -> (obj, x, s.B.stats)
  | _ -> Alcotest.fail "expected optimal MILP solution"

(* knapsack: values 10,13,7; weights 5,6,4; cap 10 -> items 2+3 = 20 *)
let test_milp_knapsack () =
  let p = P.create () in
  let xs = List.init 3 (fun i -> P.binary ~name:(Printf.sprintf "b%d" i) p) in
  let weights = [ 5.0; 6.0; 4.0 ] and values = [ 10.0; 13.0; 7.0 ] in
  ignore
    (P.add_constr p
       (L.of_list (List.map2 (fun w x -> (w, x)) weights xs))
       P.Le 10.0);
  P.set_objective p P.Maximize
    (L.of_list (List.map2 (fun v x -> (v, x)) values xs));
  let obj, x, _ = milp_opt p in
  check_float "objective" 20.0 obj;
  check_float "item0" 0.0 x.(List.nth xs 0);
  check_float "item1" 1.0 x.(List.nth xs 1);
  check_float "item2" 1.0 x.(List.nth xs 2)

(* integer rounding matters: max y st y <= 2.5 -> 2 *)
let test_milp_integer_var () =
  let p = P.create () in
  let y = P.integer ~lo:0.0 ~hi:100.0 p in
  ignore (P.add_constr p (L.var y) P.Le 2.5);
  P.set_objective p P.Maximize (L.var y);
  let obj, _, _ = milp_opt p in
  check_float "objective" 2.0 obj

let test_milp_infeasible_integrality () =
  let p = P.create () in
  let x = P.integer ~lo:0.0 ~hi:10.0 p in
  let y = P.integer ~lo:0.0 ~hi:10.0 p in
  (* 2x + 2y = 3 has no integer solution *)
  ignore (P.add_constr p (L.of_list [ (2.0, x); (2.0, y) ]) P.Eq 3.0);
  P.set_objective p P.Minimize (L.var x);
  let s = B.solve p in
  Alcotest.(check bool) "infeasible" true (s.B.status = B.Infeasible)

let test_milp_warm_incumbent () =
  let p = P.create () in
  let xs = Array.init 6 (fun i -> P.binary ~name:(Printf.sprintf "w%d" i) p) in
  ignore
    (P.add_constr p
       (L.of_list (Array.to_list (Array.map (fun x -> (3.0, x)) xs)))
       P.Le 8.0);
  P.set_objective p P.Maximize
    (L.of_list (Array.to_list (Array.map (fun x -> (1.0, x)) xs)));
  (* warm start with a feasible 1-item solution *)
  let warm = Array.make (P.num_vars p) 0.0 in
  warm.(xs.(0)) <- 1.0;
  let obj, _, _ = milp_opt ~incumbent:warm p in
  check_float "objective" 2.0 obj

(* assignment problem: LP relaxation is integral, B&B should finish at the
   root. cost matrix 3x3, minimize. *)
let test_milp_assignment () =
  let cost = [| [| 4.0; 2.0; 8.0 |]; [| 4.0; 3.0; 7.0 |]; [| 3.0; 1.0; 6.0 |] |] in
  let p = P.create () in
  let v = Array.init 3 (fun i -> Array.init 3 (fun j ->
      P.binary ~name:(Printf.sprintf "a%d%d" i j) p))
  in
  for i = 0 to 2 do
    ignore
      (P.add_constr p
         (L.of_list (List.init 3 (fun j -> (1.0, v.(i).(j)))))
         P.Eq 1.0);
    ignore
      (P.add_constr p
         (L.of_list (List.init 3 (fun j -> (1.0, v.(j).(i)))))
         P.Eq 1.0)
  done;
  let obj_expr =
    L.sum
      (List.concat_map
         (fun i -> List.init 3 (fun j -> L.var ~coeff:cost.(i).(j) v.(i).(j)))
         [ 0; 1; 2 ])
  in
  P.set_objective p P.Minimize obj_expr;
  let obj, _, _ = milp_opt p in
  (* optimal: 0->1? enumerate: best is (0,1)=2,(1,0)=4,(2,2)=6 => 12;
     or (0,0)=4,(1,2)=7,(2,1)=1 => 12; min is 11? check (0,1)=2,(1,2)=7,(2,0)=3 = 12;
     (0,0)=4,(1,1)=3,(2,2)=6 = 13; (0,2)=8.. best = 12 *)
  check_float "objective" 12.0 obj

(* ------------------------------------------------------------------ *)
(* Helpers (big-M, and, max)                                           *)
(* ------------------------------------------------------------------ *)

let test_implies_le () =
  let p = P.create ~big_m:1000.0 () in
  let b = P.binary ~name:"b" p in
  let x = P.continuous ~lo:0.0 ~hi:100.0 p in
  (* b = 1 => x <= 5 ; maximize x + 6 b *)
  P.add_implies_le p b (L.var x) 5.0;
  P.set_objective p P.Maximize (L.of_list [ (1.0, x); (6.0, b) ]);
  let obj, sol, _ = milp_opt p in
  (* without b: x = 100 -> 100. with b: x <= 5 -> 11. *)
  check_float "objective" 100.0 obj;
  check_float "b off" 0.0 sol.(b)

let test_implies_ge () =
  let p = P.create ~big_m:1000.0 () in
  let b = P.binary ~name:"b" p in
  let x = P.continuous ~lo:0.0 ~hi:100.0 p in
  (* b = 1 => x >= 40; force b = 1; minimize x *)
  P.add_implies_ge p b (L.var x) 40.0;
  ignore (P.add_constr p (L.var b) P.Eq 1.0);
  P.set_objective p P.Minimize (L.var x);
  let obj, _, _ = milp_opt p in
  check_float "objective" 40.0 obj

(* ------------------------------------------------------------------ *)
(* Model utilities                                                     *)
(* ------------------------------------------------------------------ *)

let test_validate () =
  let p = P.create () in
  let _x = P.continuous ~lo:0.0 p in
  ignore (P.add_constr p (L.const 1.0) P.Le 2.0);
  let _y = P.integer p (* unbounded integer *) in
  let issues = P.validate p in
  Alcotest.(check int) "two issues" 2 (List.length issues)

let test_check_solution () =
  let p = P.create () in
  let x = P.binary ~name:"x" p in
  let y = P.continuous ~lo:0.0 ~hi:4.0 p in
  ignore (P.add_constr ~name:"cap" p (L.of_list [ (2.0, x); (1.0, y) ]) P.Le 3.0);
  Alcotest.(check (list string)) "feasible" [] (P.check_solution p [| 1.0; 1.0 |]);
  Alcotest.(check bool) "constraint violated" true
    (List.mem "cap" (P.check_solution p [| 1.0; 2.0 |]));
  Alcotest.(check bool) "integrality violated" true
    (P.check_solution p [| 0.5; 0.0 |] <> [])

let test_residuals () =
  let p = P.create () in
  let x = P.binary ~name:"x" p in
  let y = P.continuous ~name:"y" ~lo:0.0 ~hi:4.0 p in
  ignore (P.add_constr ~name:"cap" p (L.of_list [ (2.0, x); (1.0, y) ]) P.Le 3.0);
  Alcotest.(check int) "feasible point has no residuals" 0
    (List.length (P.residuals p [| 1.0; 1.0 |]));
  (* violated row: 2*1 + 2 = 4 > 3 by 1 *)
  (match P.residuals p [| 1.0; 2.0 |] with
   | [ { P.res_kind = P.Row; res_name = "cap"; res_amount } ] ->
     check_float "row magnitude" 1.0 res_amount
   | rs ->
     Alcotest.failf "expected one row residual, got %d: %a" (List.length rs)
       Fmt.(list ~sep:comma P.pp_residual) rs);
  (* fractional binary: integrality residual of 0.5 *)
  (match P.residuals p [| 0.5; 0.0 |] with
   | [ { P.res_kind = P.Integrality; res_name = "x"; res_amount } ] ->
     check_float "integrality magnitude" 0.5 res_amount
   | _ -> Alcotest.fail "expected one integrality residual");
  (* bound violation: y = 5 exceeds hi = 4 by 1 *)
  Alcotest.(check bool) "bound residual reported" true
    (List.exists
       (fun r -> r.P.res_kind = P.Bound && r.P.res_name = "y")
       (P.residuals p [| 0.0; 5.0 |]));
  (* eps is respected *)
  Alcotest.(check int) "within eps is feasible" 0
    (List.length (P.residuals ~eps:0.1 p [| 1.0; 1.05 |]))

let test_residuals_wrong_length () =
  let p = P.create () in
  let _x = P.continuous ~name:"x" ~lo:0.0 p in
  (* residuals never raises: wrong length is a single Bad_length finding *)
  (match P.residuals p [||] with
   | [ { P.res_kind = P.Bad_length; _ } ] -> ()
   | _ -> Alcotest.fail "expected a single Bad_length residual");
  (match P.residuals p [| 1.0; 2.0 |] with
   | [ { P.res_kind = P.Bad_length; _ } ] -> ()
   | _ -> Alcotest.fail "expected a single Bad_length residual");
  (* the historical string API still raises on wrong length *)
  Alcotest.(check bool) "check_solution raises" true
    (try
       ignore (P.check_solution p [||]);
       false
     with Invalid_argument _ -> true)

let test_lp_export () =
  let p = P.create () in
  let x = P.binary ~name:"x" p in
  let y = P.integer ~name:"y" ~lo:0.0 ~hi:9.0 p in
  ignore (P.add_constr ~name:"row" p (L.of_list [ (1.0, x); (2.0, y) ]) P.Le 5.0);
  P.set_objective p P.Maximize (L.of_list [ (1.0, x); (1.0, y) ]);
  let s = P.to_lp_string p in
  Alcotest.(check bool) "has Maximize" true
    (contains s "Maximize");
  Alcotest.(check bool) "has row" true (contains s "row:");
  Alcotest.(check bool) "has Binaries" true
    (contains s "Binaries");
  Alcotest.(check bool) "has Generals" true
    (contains s "Generals")

(* ------------------------------------------------------------------ *)
(* Simplex core: persistent state, bound moves, dual repair            *)
(* ------------------------------------------------------------------ *)

module C = Milp.Simplex_core

(* max x + y st x + y <= 6, x <= 4, y <= 4 -> (4, 2) or (2, 4), obj 6 *)
let core_problem () =
  let p = P.create () in
  let x = P.continuous ~name:"x" ~lo:0.0 ~hi:4.0 p in
  let y = P.continuous ~name:"y" ~lo:0.0 ~hi:4.0 p in
  ignore (P.add_constr p (L.of_list [ (1.0, x); (1.0, y) ]) P.Le 6.0);
  P.set_objective p P.Maximize (L.of_list [ (2.0, x); (1.0, y) ]);
  (p, x, y)

let solved_core p =
  match C.build p with
  | None -> Alcotest.fail "build failed"
  | Some tb ->
    (match C.phase1 tb ~max_iters:10_000 ~deadline:infinity with
     | `Feasible ->
       C.install_objective tb;
       (match C.phase2 tb ~max_iters:10_000 ~deadline:infinity with
        | `Optimal -> tb
        | _ -> Alcotest.fail "phase2 failed")
     | _ -> Alcotest.fail "phase1 failed")

let test_core_solve_and_extract () =
  let p, x, y = core_problem () in
  let tb = solved_core p in
  (* max 2x + y: x = 4, y = 2, obj = 10 *)
  check_float "objective" 10.0 (C.objective_value tb);
  let sol = C.solution tb in
  check_float "x" 4.0 sol.(x);
  check_float "y" 2.0 sol.(y)

(* [restore ~bounds] re-solves a node LP from a saved basis under new
   variable bounds: the branch-and-bound warm start *)
let bounds_with p j ~lo ~hi =
  let n = P.num_vars p in
  let los = Array.init n (fun v -> fst (P.var_bounds p v)) in
  let his = Array.init n (fun v -> snd (P.var_bounds p v)) in
  los.(j) <- lo;
  his.(j) <- hi;
  (los, his)

let restore_optimal p b bounds =
  match C.restore ~bounds ~max_iters:1_000 ~deadline:infinity b p with
  | `Optimal tb -> tb
  | `Cold_needed -> Alcotest.fail "restore fell back to a cold solve"
  | `Infeasible_bounds -> Alcotest.fail "unexpected crossed bounds"
  | `Unbounded -> Alcotest.fail "unexpected unbounded"
  | `Limit -> Alcotest.fail "unexpected limit"

let test_core_bound_move_and_dual_repair () =
  let p, x, y = core_problem () in
  let tb = solved_core p in
  (* tighten x <= 1: new optimum x = 1, y = 4, obj = 6 *)
  let tb1 =
    restore_optimal p (C.snapshot tb) (bounds_with p x ~lo:0.0 ~hi:1.0)
  in
  check_float "objective after repair" 6.0 (C.objective_value tb1);
  let sol = C.solution tb1 in
  check_float "x after repair" 1.0 sol.(x);
  check_float "y after repair" 4.0 sol.(y);
  (* relax it back from the repaired basis: original optimum returns *)
  let tb2 =
    restore_optimal p (C.snapshot tb1) (bounds_with p x ~lo:0.0 ~hi:4.0)
  in
  check_float "objective restored" 10.0 (C.objective_value tb2)

let test_core_bound_move_infeasible () =
  let p = P.create () in
  let x = P.continuous ~name:"cx" ~lo:0.0 ~hi:10.0 p in
  ignore (P.add_constr p (L.var x) P.Ge 5.0);
  P.set_objective p P.Minimize (L.var x);
  let tb = solved_core p in
  check_float "base optimum" 5.0 (C.objective_value tb);
  (* force x <= 2: conflicts with x >= 5. A restored cost row need not be
     exactly dual feasible, so restore never certifies infeasibility by
     itself: it hands the node back to the cold path *)
  let bounds = bounds_with p x ~lo:0.0 ~hi:2.0 in
  (match
     C.restore ~bounds ~max_iters:1_000 ~deadline:infinity (C.snapshot tb) p
   with
   | `Cold_needed | `Infeasible_bounds -> ()
   | `Optimal _ -> Alcotest.fail "restore claimed an optimum"
   | `Unbounded -> Alcotest.fail "unexpected unbounded"
   | `Limit -> Alcotest.fail "unexpected limit");
  (* ... which proves it *)
  match S.solve ~bounds p with
  | S.Infeasible -> ()
  | _ -> Alcotest.fail "cold solve under the moved bound must be infeasible"

(* The one shortcut rule: a checked warm incumbent that no node can beat,
   because every node's bound is at least the floor, is returned as
   [Optimal] before presolve, with no node and no pivot. A constant
   objective is its own floor. *)
let test_feasibility_shortcut () =
  let p = P.create () in
  let x = P.binary ~name:"fs" p in
  ignore (P.add_constr p (L.var x) P.Le 1.0);
  let searched (s : B.solution) = s.B.stats.B.nodes > 0 in
  (* constant objective + feasible incumbent -> immediate optimal *)
  let s = B.solve ~incumbent:[| 1.0 |] p in
  Alcotest.(check bool) "optimal" true (s.B.status = B.Optimal);
  Alcotest.(check bool) "without search" false (searched s);
  (* infeasible incumbent -> no shortcut *)
  Alcotest.(check bool) "no shortcut for bad incumbent" true
    (searched (B.solve ~incumbent:[| 2.0 |] p));
  (* non-constant objective -> no shortcut *)
  P.set_objective p P.Maximize (L.var x);
  Alcotest.(check bool) "no shortcut with objective" true
    (searched (B.solve ~incumbent:[| 1.0 |] p))

(* min 3a + 2b + 4.5c over a binary vertex cover of a triangle: the LP
   bound is 4.75 at a = b = c = 1/2, the optimum 5 at (1, 1, 0). *)
let cover_triangle () =
  let p = P.create () in
  let v = Array.init 3 (fun i -> P.binary ~name:(Printf.sprintf "v%d" i) p) in
  List.iter
    (fun (i, j) ->
      ignore (P.add_constr p (L.of_list [ (1.0, v.(i)); (1.0, v.(j)) ]) P.Ge 1.0))
    [ (0, 1); (1, 2); (0, 2) ];
  P.set_objective p P.Minimize
    (L.of_list [ (3.0, v.(0)); (2.0, v.(1)); (4.5, v.(2)) ]);
  p

let test_bound_closes_at_incumbent () =
  let p = cover_triangle () in
  let s = B.solve ~incumbent:[| 1.0; 1.0; 0.0 |] ~bound:5.0 p in
  Alcotest.(check bool) "optimal" true (s.B.status = B.Optimal);
  check_float "objective" 5.0 (Option.get s.B.obj);
  Alcotest.(check int) "no node" 0 s.B.stats.B.nodes;
  Alcotest.(check int) "no pivot" 0
    (s.B.stats.B.lp.B.lp_pivots + s.B.stats.B.lp.B.lp_dual_pivots)

let test_bound_below_incumbent_searches () =
  let p = cover_triangle () in
  let s = B.solve ~incumbent:[| 1.0; 0.0; 1.0 |] ~bound:5.0 p in
  Alcotest.(check bool) "optimal" true (s.B.status = B.Optimal);
  check_float "objective" 5.0 (Option.get s.B.obj);
  Alcotest.(check bool) "searched" true (s.B.stats.B.nodes > 0)

let test_best_bound_respects_bound () =
  let p = cover_triangle () in
  List.iter
    (fun (bound, node_limit, incumbent) ->
      let s = B.solve ?incumbent ~bound ~node_limit p in
      Alcotest.(check bool)
        (Printf.sprintf "bound %g, %d nodes: best_bound %g" bound node_limit
           s.B.stats.B.best_bound)
        true
        (s.B.stats.B.best_bound >= bound))
    [
      (4.9, 0, None); (4.9, 1, None); (4.9, 1, Some [| 1.0; 0.0; 1.0 |]);
      (5.0, 0, None); (5.0, 1, Some [| 1.0; 0.0; 1.0 |]); (5.0, 100, None);
    ]

(* ------------------------------------------------------------------ *)
(* Presolve                                                            *)
(* ------------------------------------------------------------------ *)

module Pre = Milp.Presolve

let test_presolve_tightens_and_drops () =
  let p = P.create () in
  let x = P.continuous ~name:"x" ~lo:0.0 ~hi:100.0 p in
  let y = P.integer ~name:"y" ~lo:0.0 ~hi:100.0 p in
  (* x <= 7.5 is a singleton row: absorbed into the bound *)
  ignore (P.add_constr ~name:"sx" p (L.var x) P.Le 7.5);
  (* 2y <= 9 -> y <= 4.5 -> integral: y <= 4 *)
  ignore (P.add_constr ~name:"sy" p (L.var ~coeff:2.0 y) P.Le 9.0);
  (* x + y <= 1000 is redundant once bounds are tight *)
  ignore (P.add_constr ~name:"red" p (L.of_list [ (1.0, x); (1.0, y) ]) P.Le 1000.0);
  P.set_objective p P.Maximize (L.of_list [ (1.0, x); (1.0, y) ]);
  match Pre.run p with
  | Pre.Infeasible _, _ -> Alcotest.fail "unexpected infeasible"
  | Pre.Reduced q, stats ->
    Alcotest.(check bool) "rows dropped" true (stats.Pre.rows_dropped >= 1);
    let _, hi_x = P.var_bounds q x in
    let _, hi_y = P.var_bounds q y in
    check_float "x tightened" 7.5 hi_x;
    check_float "y tightened and rounded" 4.0 hi_y;
    (* same optimum on both problems *)
    (match (B.solve ~time_limit_s:10.0 p, B.solve ~time_limit_s:10.0 q) with
     | { B.obj = Some a; _ }, { B.obj = Some b; _ } -> check_float "optimum" a b
     | _ -> Alcotest.fail "expected optimal")

let test_presolve_detects_infeasible () =
  let p = P.create () in
  let x = P.continuous ~name:"x" ~lo:0.0 ~hi:1.0 p in
  let y = P.continuous ~name:"y" ~lo:0.0 ~hi:1.0 p in
  ignore (P.add_constr ~name:"imposs" p (L.of_list [ (1.0, x); (1.0, y) ]) P.Ge 5.0);
  P.set_objective p P.Minimize (L.var x);
  (match Pre.run p with
   | Pre.Infeasible name, _ -> Alcotest.(check string) "witness" "imposs" name
   | Pre.Reduced _, _ -> Alcotest.fail "expected infeasible")

let test_presolve_fixes_binaries () =
  let p = P.create () in
  let a = P.binary ~name:"a" p in
  let b = P.binary ~name:"b" p in
  (* a + b >= 2 forces both to 1 *)
  ignore (P.add_constr p (L.of_list [ (1.0, a); (1.0, b) ]) P.Ge 2.0);
  P.set_objective p P.Minimize (L.of_list [ (1.0, a); (1.0, b) ]);
  match Pre.run p with
  | Pre.Infeasible _, _ -> Alcotest.fail "unexpected infeasible"
  | Pre.Reduced q, _ ->
    let lo_a, _ = P.var_bounds q a in
    let lo_b, _ = P.var_bounds q b in
    check_float "a fixed to 1" 1.0 lo_a;
    check_float "b fixed to 1" 1.0 lo_b

let prop_presolve_preserves_optimum =
  QCheck.Test.make ~name:"presolve preserves the optimum" ~count:40
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let n = 3 + Random.State.int st 5 in
      let p = P.create () in
      let xs =
        Array.init n (fun i ->
            if Random.State.bool st then P.binary ~name:(Printf.sprintf "pb%d" i) p
            else
              P.integer ~name:(Printf.sprintf "pi%d" i) ~lo:0.0
                ~hi:(float_of_int (1 + Random.State.int st 9))
                p)
      in
      for r = 0 to 2 do
        let expr =
          Array.fold_left
            (fun acc x ->
              L.add_term acc (float_of_int (Random.State.int st 9 - 3)) x)
            L.zero xs
        in
        if not (L.is_constant expr) then
          ignore
            (P.add_constr ~name:(Printf.sprintf "pr%d" r) p expr
               (if Random.State.bool st then P.Le else P.Ge)
               (float_of_int (Random.State.int st 20 - 5)))
      done;
      P.set_objective p P.Maximize
        (L.of_list
           (Array.to_list
              (Array.map (fun x -> (float_of_int (1 + Random.State.int st 5), x)) xs)));
      let a = B.solve ~time_limit_s:10.0 p in
      match Pre.run p with
      | Pre.Infeasible _, _ ->
        (* presolve infeasibility must agree with the solver *)
        a.B.status = B.Infeasible
      | Pre.Reduced q, _ ->
        let b = B.solve ~time_limit_s:10.0 q in
        (match (a.B.obj, b.B.obj) with
         | Some oa, Some ob -> Float.abs (oa -. ob) < 1.0e-6
         | None, None -> true
         | _ -> false))

(* ------------------------------------------------------------------ *)
(* Property-based tests                                                *)
(* ------------------------------------------------------------------ *)

(* Exhaustive 0/1 enumeration oracle for small binary MILPs. *)
let enumerate_best ~n ~feasible ~value =
  let best = ref None in
  for mask = 0 to (1 lsl n) - 1 do
    let x = Array.init n (fun i -> if mask land (1 lsl i) <> 0 then 1.0 else 0.0) in
    if feasible x then begin
      let v = value x in
      match !best with
      | None -> best := Some v
      | Some b -> if v > b then best := Some v
    end
  done;
  !best

let prop_knapsack_matches_bruteforce =
  QCheck.Test.make ~name:"bb matches brute force on random knapsacks" ~count:60
    QCheck.(
      pair (int_range 1 8)
        (pair (list_of_size (Gen.return 8) (int_range 1 20))
           (list_of_size (Gen.return 8) (int_range 1 20))))
    (fun (cap_scale, (weights, values)) ->
      let n = min (List.length weights) (List.length values) in
      QCheck.assume (n > 0);
      let weights = Array.of_list (List.filteri (fun i _ -> i < n) weights) in
      let values = Array.of_list (List.filteri (fun i _ -> i < n) values) in
      let cap = float_of_int (cap_scale * 8) in
      let p = P.create () in
      let xs = Array.init n (fun i -> P.binary ~name:(Printf.sprintf "k%d" i) p) in
      ignore
        (P.add_constr p
           (L.of_list
              (Array.to_list
                 (Array.mapi (fun i x -> (float_of_int weights.(i), x)) xs)))
           P.Le cap);
      P.set_objective p P.Maximize
        (L.of_list
           (Array.to_list
              (Array.mapi (fun i x -> (float_of_int values.(i), x)) xs)));
      let s = B.solve ~time_limit_s:10.0 p in
      let expected =
        enumerate_best ~n
          ~feasible:(fun x ->
            let w = ref 0.0 in
            Array.iteri (fun i v -> w := !w +. (v *. float_of_int weights.(i))) x;
            !w <= cap +. 1e-9)
          ~value:(fun x ->
            let v = ref 0.0 in
            Array.iteri (fun i b -> v := !v +. (b *. float_of_int values.(i))) x;
            !v)
      in
      match (s.B.status, s.B.obj, expected) with
      | B.Optimal, Some obj, Some e -> Float.abs (obj -. e) < 1e-6
      | B.Infeasible, _, None -> true
      | _ -> false)

let prop_random_lp_solution_feasible =
  QCheck.Test.make ~name:"simplex optimum satisfies all constraints" ~count:80
    QCheck.(
      list_of_size (Gen.int_range 1 6)
        (list_of_size (Gen.return 4) (int_range (-5) 5)))
    (fun rows ->
      QCheck.assume (rows <> []);
      let p = P.create () in
      let xs = Array.init 4 (fun i -> P.continuous ~name:(Printf.sprintf "v%d" i) ~lo:0.0 ~hi:10.0 p) in
      List.iteri
        (fun r coeffs ->
          let coeffs = Array.of_list coeffs in
          let expr =
            L.of_list
              (Array.to_list
                 (Array.mapi (fun i c -> (float_of_int c, xs.(i))) coeffs))
          in
          ignore
            (P.add_constr ~name:(Printf.sprintf "r%d" r) p expr P.Le
               (float_of_int (10 + r))))
        rows;
      P.set_objective p P.Maximize
        (L.of_list (Array.to_list (Array.map (fun x -> (1.0, x)) xs)));
      match S.solve p with
      | S.Optimal { x; _ } -> P.check_solution ~eps:1e-5 p x = []
      | S.Infeasible -> false (* box-bounded with x = 0 feasible: rows rhs > 0 *)
      | S.Unbounded -> false (* impossible: box-bounded *)
      | S.Iteration_limit -> false)

(* all pricing rules optimize the same LP to the same objective: devex
   and Dantzig may walk different vertex paths (and devex prices only a
   candidate list), but optimality is only declared after a full scan
   comes up empty, so the optimum itself must agree with Bland's rule *)
let prop_cross_pricing_same_objective =
  QCheck.Test.make ~name:"pricing rules agree on the LP optimum" ~count:60
    QCheck.(
      list_of_size (Gen.int_range 1 6)
        (list_of_size (Gen.return 4) (int_range (-5) 5)))
    (fun rows ->
      QCheck.assume (rows <> []);
      let build () =
        let p = P.create () in
        let xs =
          Array.init 4 (fun i ->
              P.continuous ~name:(Printf.sprintf "cp%d" i) ~lo:0.0 ~hi:10.0 p)
        in
        List.iteri
          (fun r coeffs ->
            let coeffs = Array.of_list coeffs in
            let expr =
              L.of_list
                (Array.to_list
                   (Array.mapi (fun i c -> (float_of_int c, xs.(i))) coeffs))
            in
            ignore
              (P.add_constr ~name:(Printf.sprintf "cr%d" r) p expr P.Le
                 (float_of_int (10 + r))))
          rows;
        P.set_objective p P.Maximize
          (L.of_list (Array.to_list (Array.map (fun x -> (1.0, x)) xs)));
        p
      in
      let objs =
        List.map
          (fun pricing ->
            match S.solve ~pricing (build ()) with
            | S.Optimal { obj; _ } -> obj
            | _ -> QCheck.assume_fail ())
          [ S.Dantzig; S.Devex; S.Bland ]
      in
      match objs with
      | [ a; b; c ] ->
        Float.abs (a -. b) < 1.0e-5 && Float.abs (a -. c) < 1.0e-5
      | _ -> false)

(* presolve round trip: an optimal assignment of the reduced model must
   be feasible (and equally good) in the original model — the reduction
   keeps variable ids, so solutions transfer verbatim *)
let prop_presolve_solution_roundtrip =
  QCheck.Test.make ~name:"presolved optimum is feasible in the original"
    ~count:40
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let n = 3 + Random.State.int st 5 in
      let p = P.create () in
      let xs =
        Array.init n (fun i ->
            if Random.State.bool st then
              P.binary ~name:(Printf.sprintf "qb%d" i) p
            else
              P.integer ~name:(Printf.sprintf "qi%d" i) ~lo:0.0
                ~hi:(float_of_int (1 + Random.State.int st 9))
                p)
      in
      for r = 0 to 2 do
        let expr =
          Array.fold_left
            (fun acc x ->
              L.add_term acc (float_of_int (Random.State.int st 9 - 3)) x)
            L.zero xs
        in
        if not (L.is_constant expr) then
          ignore
            (P.add_constr ~name:(Printf.sprintf "qr%d" r) p expr
               (if Random.State.bool st then P.Le else P.Ge)
               (float_of_int (Random.State.int st 20 - 5)))
      done;
      P.set_objective p P.Maximize
        (L.of_list
           (Array.to_list
              (Array.map
                 (fun x -> (float_of_int (1 + Random.State.int st 5), x))
                 xs)));
      match Pre.run p with
      | Pre.Infeasible _, _ ->
        (B.solve ~time_limit_s:10.0 p).B.status = B.Infeasible
      | Pre.Reduced q, _ ->
        (match (B.solve ~time_limit_s:10.0 q).B.x with
         | None -> true
         | Some x -> P.check_solution ~eps:1e-5 p x = []))

(* best-first against exhaustive enumeration on mixed binary/general
   integer MILPs: n <= 10 binaries x y in 0..6 is at most 7,168 points.
   For each binary vector the oracle keeps the largest feasible y, the
   best one since y's objective coefficient is positive. *)
let prop_bb_matches_enumeration =
  QCheck.Test.make ~name:"best-first B&B matches exhaustive enumeration"
    ~count:30
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let n = 4 + Random.State.int st 7 in
      let coeff () = float_of_int (1 + Random.State.int st 9) in
      let rows =
        Array.init 3 (fun _ ->
            let a = Array.init n (fun _ -> coeff ()) in
            (a, float_of_int (8 + Random.State.int st (3 * n))))
      in
      let c = Array.init n (fun _ -> coeff ()) in
      let p = P.create () in
      let xs =
        Array.init n (fun i -> P.binary ~name:(Printf.sprintf "d%d" i) p)
      in
      let y = P.integer ~name:"y" ~lo:0.0 ~hi:6.0 p in
      let lin a =
        L.of_list (Array.to_list (Array.mapi (fun i x -> (a.(i), x)) xs))
      in
      Array.iteri
        (fun r (a, b) ->
          ignore
            (P.add_constr ~name:(Printf.sprintf "dr%d" r) p
               (L.add_term (lin a) 2.0 y) P.Le b))
        rows;
      ignore (P.add_constr p (L.add (L.var xs.(0)) (L.var y)) P.Ge 1.0);
      P.set_objective p P.Maximize (L.add_term (lin c) 3.0 y);
      let dot a x =
        let s = ref 0.0 in
        Array.iteri (fun i v -> s := !s +. (a.(i) *. v)) x;
        !s
      in
      let best_y x =
        List.fold_left
          (fun acc yv ->
            let fy = float_of_int yv in
            let ok =
              x.(0) +. fy >= 1.0
              && Array.for_all (fun (a, b) -> dot a x +. (2.0 *. fy) <= b) rows
            in
            if ok then Some yv else acc)
          None [ 0; 1; 2; 3; 4; 5; 6 ]
      in
      let expected =
        enumerate_best ~n
          ~feasible:(fun x -> best_y x <> None)
          ~value:(fun x ->
            dot c x +. (3.0 *. float_of_int (Option.get (best_y x))))
      in
      let s = B.solve ~time_limit_s:15.0 p in
      match (s.B.status, s.B.obj, expected) with
      | B.Optimal, Some obj, Some e -> Float.abs (obj -. e) < 1.0e-6
      | B.Infeasible, None, None -> true
      | _ -> false)

(* an integer variable without an upper bound still branches to the
   integral optimum *)
let test_milp_unbounded_integer_var () =
  let p = P.create () in
  let x = P.integer ~lo:0.0 p (* unbounded above *) in
  ignore (P.add_constr p (L.var x) P.Le 4.5);
  P.set_objective p P.Maximize (L.var x);
  let s = B.solve ~time_limit_s:10.0 p in
  check_float "branches to the integral optimum" 4.0 (Option.get s.B.obj)

let prop_bb_obj_never_beats_lp_bound =
  QCheck.Test.make ~name:"MILP optimum never beats its LP relaxation" ~count:40
    QCheck.(list_of_size (Gen.return 6) (pair (int_range 1 15) (int_range 1 15)))
    (fun items ->
      QCheck.assume (items <> []);
      let n = List.length items in
      let p = P.create () in
      let xs = Array.init n (fun i -> P.binary ~name:(Printf.sprintf "z%d" i) p) in
      let weights = Array.of_list (List.map (fun (w, _) -> float_of_int w) items) in
      let values = Array.of_list (List.map (fun (_, v) -> float_of_int v) items) in
      ignore
        (P.add_constr p
           (L.of_list
              (Array.to_list (Array.mapi (fun i x -> (weights.(i), x)) xs)))
           P.Le 30.0);
      P.set_objective p P.Maximize
        (L.of_list (Array.to_list (Array.mapi (fun i x -> (values.(i), x)) xs)));
      let lp =
        match S.solve p with
        | S.Optimal { obj; _ } -> obj
        | _ -> QCheck.assume_fail ()
      in
      let s = B.solve ~time_limit_s:10.0 p in
      match (s.B.status, s.B.obj) with
      | B.Optimal, Some obj -> obj <= lp +. 1e-6
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Integer-valued objectives                                           *)
(* ------------------------------------------------------------------ *)

(* The OBJ-DMAT shape: each of [tasks] picks one of [slots] slots
   (binaries x.(i).(g)), a continuous w lies above every task's slot
   index through a row w - sum_g g * x.(i).(g) >= 0, and the objective
   minimizes w. *)
let dmat_shape ~tasks ~slots () =
  let p = P.create () in
  let x =
    Array.init tasks (fun i ->
        Array.init slots (fun g -> P.binary ~name:(Printf.sprintf "x%d_%d" i g) p))
  in
  let w = P.continuous ~name:"w" ~lo:0.0 ~hi:(float_of_int (slots - 1)) p in
  Array.iter
    (fun xi ->
      ignore
        (P.add_constr p
           (L.of_list (Array.to_list (Array.map (fun v -> (1.0, v)) xi)))
           P.Eq 1.0);
      let index =
        L.of_list (Array.to_list (Array.mapi (fun g v -> (float_of_int g, v)) xi))
      in
      ignore (P.add_constr p (L.sub (L.var w) index) P.Ge 0.0))
    x;
  P.set_objective p P.Minimize (L.var w);
  (p, x, w)

(* The search must never cut off an optimum: random OBJ-DMAT
   shapes with conflicting task pairs and per-slot capacities, checked
   against enumerating every slot assignment (at most 4^5). Half the
   draws start from the first feasible assignment as a warm incumbent,
   so an over-eager prune would return it as optimal. *)
let prop_bb_matches_enumeration_dmat =
  QCheck.Test.make
    ~name:"B&B matches enumeration on integer-valued min-max objectives"
    ~count:40
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let tasks = 3 + Random.State.int st 3 in
      let slots = 3 + Random.State.int st 2 in
      let p, x, w = dmat_shape ~tasks ~slots () in
      let conflicts =
        List.concat_map
          (fun i ->
            List.filter_map
              (fun j ->
                if j > i && Random.State.int st 3 = 0 then Some (i, j) else None)
              (List.init tasks Fun.id))
          (List.init tasks Fun.id)
      in
      List.iter
        (fun (i, j) ->
          for g = 0 to slots - 1 do
            ignore
              (P.add_constr p
                 (L.of_list [ (1.0, x.(i).(g)); (1.0, x.(j).(g)) ])
                 P.Le 1.0)
          done)
        conflicts;
      let size = Array.init tasks (fun _ -> 1 + Random.State.int st 4) in
      let cap = 2 + Random.State.int st 5 in
      for g = 0 to slots - 1 do
        ignore
          (P.add_constr p
             (L.of_list
                (List.init tasks (fun i -> (float_of_int size.(i), x.(i).(g)))))
             P.Le (float_of_int cap))
      done;
      (* every assignment task -> slot, in counting order *)
      let assignments =
        List.init
          (int_of_float (float_of_int slots ** float_of_int tasks))
          (fun code ->
            Array.init tasks (fun i ->
                code / int_of_float (float_of_int slots ** float_of_int i)
                mod slots))
      in
      let feasible a =
        List.for_all (fun (i, j) -> a.(i) <> a.(j)) conflicts
        && List.for_all
             (fun g ->
               let load = ref 0 in
               Array.iteri (fun i s -> if s = g then load := !load + size.(i)) a;
               !load <= cap)
             (List.init slots Fun.id)
      in
      let value a = Array.fold_left max 0 a in
      let feasibles = List.filter feasible assignments in
      let expected =
        List.fold_left
          (fun acc a -> Some (min (value a) (Option.value acc ~default:max_int)))
          None feasibles
      in
      let incumbent =
        match feasibles with
        | a :: _ when Random.State.bool st ->
          let v = Array.make (P.num_vars p) 0.0 in
          Array.iteri (fun i s -> v.(x.(i).(s)) <- 1.0) a;
          v.(w) <- float_of_int (value a);
          Some v
        | _ -> None
      in
      let s = B.solve ~time_limit_s:15.0 ?incumbent p in
      match (s.B.status, s.B.obj, expected) with
      | B.Optimal, Some obj, Some e -> Float.abs (obj -. float_of_int e) < 1.0e-5
      | B.Infeasible, None, None -> true
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Warm-basis reuse                                                    *)
(* ------------------------------------------------------------------ *)

(* shared random MILP generator for the warm-vs-cold cross-checks: a
   knapsack-ish model whose LP relaxation is fractional, so the search
   branches and children actually exercise the basis pool *)
let warm_test_problem st =
  let n = 4 + Random.State.int st 7 in
  let p = P.create () in
  let xs =
    Array.init n (fun i -> P.binary ~name:(Printf.sprintf "w%d" i) p)
  in
  let y = P.integer ~name:"wy" ~lo:0.0 ~hi:6.0 p in
  for r = 0 to 2 do
    let expr =
      Array.fold_left
        (fun acc x -> L.add_term acc (float_of_int (1 + Random.State.int st 9)) x)
        (L.var ~coeff:2.0 y) xs
    in
    ignore
      (P.add_constr ~name:(Printf.sprintf "wr%d" r) p expr P.Le
         (float_of_int (8 + Random.State.int st (3 * n))))
  done;
  ignore (P.add_constr p (L.add (L.var xs.(0)) (L.var y)) P.Ge 1.0);
  P.set_objective p P.Maximize
    (Array.fold_left
       (fun acc x -> L.add_term acc (float_of_int (1 + Random.State.int st 9)) x)
       (L.var ~coeff:3.0 y) xs);
  p

(* a restored basis reoptimized under branched bounds must be
   interchangeable with a cold solve: same status, same objective (the
   vertex may differ among degenerate optima) *)
let prop_warm_simplex_matches_cold =
  QCheck.Test.make ~name:"warm simplex restore matches cold under new bounds"
    ~count:80
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let p = warm_test_problem st in
      let w0 = S.solve_warm p in
      match (w0.S.wr_result, w0.S.wr_basis) with
      | S.Optimal { x; _ }, Some basis ->
        let nvars = P.num_vars p in
        let lo = Array.make nvars 0.0 and hi = Array.make nvars 0.0 in
        P.iter_vars (fun j _ (l, h) -> lo.(j) <- l; hi.(j) <- h) p;
        (* branch-style bound move on a variable with slack to move *)
        let j = Random.State.int st nvars in
        if Random.State.bool st then hi.(j) <- Float.max lo.(j) (Float.floor x.(j))
        else lo.(j) <- Float.min hi.(j) (Float.ceil x.(j));
        let cold = S.solve ~bounds:(lo, hi) p in
        let warm = S.solve_warm ~bounds:(lo, hi) ~basis p in
        (match (cold, warm.S.wr_result) with
         | S.Optimal { obj = oa; _ }, S.Optimal { obj = ob; _ } ->
           Float.abs (oa -. ob) <= 1e-6 *. (1.0 +. Float.abs oa)
         | S.Infeasible, S.Infeasible -> true
         | S.Unbounded, S.Unbounded -> true
         | _ -> false)
      | _ -> QCheck.assume_fail ())

(* the warm-basis search (pool on) and the cold search (pool 0) must
   agree on status and objective over whole searches — the warm-vs-cold
   companion of the enumeration property *)
let prop_warm_bb_matches_cold =
  QCheck.Test.make ~name:"warm-basis B&B matches cold B&B on random MILPs"
    ~count:30
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let p = warm_test_problem st in
      let cold = B.solve ~time_limit_s:15.0 ~basis_pool:0 p in
      (* a tiny pool also exercises LRU eviction and the orphan fallback *)
      let warm = B.solve ~time_limit_s:15.0 ~basis_pool:4 p in
      cold.B.status = warm.B.status
      &&
      match (cold.B.obj, warm.B.obj) with
      | Some oa, Some ob -> Float.abs (oa -. ob) < 1.0e-6
      | None, None -> true
      | Some _, None | None, Some _ -> false)

(* jobs=1 determinism: two identical warm runs walk the identical search
   — node counts, warm accounting and the full incumbent trajectory.
   The pool's LRU eviction picks its victim by a (recency, node-id)
   total order precisely so this holds; a Hashtbl-iteration-order
   dependence would show up here as runs (or the pinned expectations
   below) diverging. *)
let test_warm_determinism_two_runs () =
  let run () =
    let trail = ref [] in
    let hooks =
      {
        B.no_hooks with
        B.on_incumbent = (fun ~obj _ -> trail := obj :: !trail);
      }
    in
    let st = Random.State.make [| 42 |] in
    let p = warm_test_problem st in
    let r = B.solve ~time_limit_s:30.0 ~basis_pool:2 ~hooks p in
    let lp = r.B.stats.B.lp in
    ( r.B.status,
      r.B.obj,
      r.B.stats.B.nodes,
      lp.B.lp_warm_hits,
      lp.B.lp_warm_misses,
      lp.B.lp_basis_evictions,
      List.rev !trail )
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "two runs identical" true (a = b);
  let status, obj, nodes, hits, misses, evictions, trail = a in
  Alcotest.(check bool) "solved to optimality" true (status = B.Optimal);
  (* pinned trajectory for the fixed seed: guards regressions that
     change the search (e.g. pool bookkeeping becoming order-dependent)
     without breaking two-run equality within one process. Node 3's
     LP bound of 15.43 can still beat the incumbent 15 it finds, so it
     branches: its basis enters the two-slot pool, and node 4's
     insertion evicts one entry. *)
  check_float "pinned objective" 16.0 (Option.get obj);
  Alcotest.(check int) "pinned node count" 5 nodes;
  Alcotest.(check int) "pinned warm hits" 4 hits;
  Alcotest.(check int) "pinned warm misses" 0 misses;
  Alcotest.(check int) "pinned evictions" 1 evictions;
  Alcotest.(check int) "pinned incumbent count" 3 (List.length trail)

(* Parent-basis reuse pays on the paper's instance: WATERS OBJ-DMAT at
   alpha 0.2, where each node LP costs seconds from scratch. Cold
   ([basis_pool:0]) and warm (default pool) runs get the same Grouped
   heuristic incumbent and the same 5-node budget, so they are
   comparable point for point: the warm run must land on the same
   objective with at most 75% of the cold run's primal + dual pivots.
   Presolve is off in both runs: the presolved root LP of this model
   alone takes about 50 s. *)
let test_warm_pivots_waters () =
  let app = Workload.Waters2019.make ~labels_per_edge:1 () in
  let groups = Let_sem.Groups.compute app in
  let gamma =
    match Rt_analysis.Sensitivity.gammas app ~alpha:0.2 with
    | Some s -> s.Rt_analysis.Sensitivity.gamma
    | None -> Alcotest.fail "WATERS unschedulable at alpha 0.2"
  in
  let inst =
    Letdma.Formulation.make Letdma.Formulation.Min_transfers app groups ~gamma
  in
  let incumbent =
    Option.bind
      (Letdma.Heuristic.solve_unchecked ~granularity:Letdma.Heuristic.Grouped
         app groups ~gamma)
      (Letdma.Formulation.encode inst)
  in
  let run ?basis_pool () =
    let r =
      B.solve ~time_limit_s:120.0 ~node_limit:5 ?incumbent ~presolve:false
        ?basis_pool inst.Letdma.Formulation.problem
    in
    let lp = r.B.stats.B.lp in
    (r, lp.B.lp_pivots + lp.B.lp_dual_pivots)
  in
  let cold, cold_pivots = run ~basis_pool:0 () in
  let warm, warm_pivots = run () in
  Alcotest.(check int) "cold explores the budget" 5 cold.B.stats.B.nodes;
  Alcotest.(check int) "warm explores the budget" 5 warm.B.stats.B.nodes;
  Alcotest.(check (option (float 0.0))) "same objective" cold.B.obj warm.B.obj;
  if float_of_int warm_pivots > 0.75 *. float_of_int cold_pivots then
    Alcotest.failf "warm %d pivots > 75%% of cold %d" warm_pivots cold_pivots

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_knapsack_matches_bruteforce;
        prop_random_lp_solution_feasible;
        prop_bb_obj_never_beats_lp_bound;
        prop_bb_matches_enumeration;
        prop_bb_matches_enumeration_dmat;
        prop_warm_simplex_matches_cold;
        prop_warm_bb_matches_cold;
        prop_presolve_preserves_optimum;
        prop_cross_pricing_same_objective;
        prop_presolve_solution_roundtrip;
      ]
  in
  Alcotest.run "milp"
    [
      ( "linexpr",
        [
          Alcotest.test_case "basic ops" `Quick test_linexpr_basic;
          Alcotest.test_case "sub/neg" `Quick test_linexpr_sub_neg;
          Alcotest.test_case "map_vars" `Quick test_linexpr_map_vars;
        ] );
      ( "simplex",
        [
          Alcotest.test_case "max basic" `Quick test_lp_max_basic;
          Alcotest.test_case "min with >=" `Quick test_lp_min_ge;
          Alcotest.test_case "equalities" `Quick test_lp_eq;
          Alcotest.test_case "infeasible" `Quick test_lp_infeasible;
          Alcotest.test_case "unbounded" `Quick test_lp_unbounded;
          Alcotest.test_case "upper bounds" `Quick test_lp_upper_bounds;
          Alcotest.test_case "shifted and free vars" `Quick test_lp_shifted_and_free;
          Alcotest.test_case "degenerate (Beale)" `Quick test_lp_degenerate;
          Alcotest.test_case "bound overrides" `Quick test_lp_bounds_override;
        ] );
      ( "branch-and-bound",
        [
          Alcotest.test_case "knapsack" `Quick test_milp_knapsack;
          Alcotest.test_case "integer var" `Quick test_milp_integer_var;
          Alcotest.test_case "integrality infeasible" `Quick
            test_milp_infeasible_integrality;
          Alcotest.test_case "warm incumbent" `Quick test_milp_warm_incumbent;
          Alcotest.test_case "assignment" `Quick test_milp_assignment;
          Alcotest.test_case "unbounded integer var" `Quick
            test_milp_unbounded_integer_var;
        ] );
      ( "warmstart",
        [
          Alcotest.test_case "jobs=1 determinism + pinned trajectory" `Quick
            test_warm_determinism_two_runs;
          Alcotest.test_case "WATERS OBJ-DMAT warm pivots <= 75% of cold"
            `Slow test_warm_pivots_waters;
        ] );
      ( "helpers",
        [
          Alcotest.test_case "implies <=" `Quick test_implies_le;
          Alcotest.test_case "implies >=" `Quick test_implies_ge;
        ] );
      ( "model",
        [
          Alcotest.test_case "validate" `Quick test_validate;
          Alcotest.test_case "check_solution" `Quick test_check_solution;
          Alcotest.test_case "residuals" `Quick test_residuals;
          Alcotest.test_case "residuals wrong length" `Quick
            test_residuals_wrong_length;
          Alcotest.test_case "LP export" `Quick test_lp_export;
        ] );
      ( "simplex-core",
        [
          Alcotest.test_case "solve and extract" `Quick test_core_solve_and_extract;
          Alcotest.test_case "bound move + dual repair" `Quick
            test_core_bound_move_and_dual_repair;
          Alcotest.test_case "bound move to infeasible" `Quick
            test_core_bound_move_infeasible;
          Alcotest.test_case "feasibility shortcut" `Quick test_feasibility_shortcut;
          Alcotest.test_case "incumbent at the bound: 0 nodes, 0 pivots" `Quick
            test_bound_closes_at_incumbent;
          Alcotest.test_case "incumbent above the bound searches" `Quick
            test_bound_below_incumbent_searches;
          Alcotest.test_case "best_bound never below the bound" `Quick
            test_best_bound_respects_bound;
        ] );
      ( "presolve",
        [
          Alcotest.test_case "tighten and drop" `Quick test_presolve_tightens_and_drops;
          Alcotest.test_case "detect infeasible" `Quick test_presolve_detects_infeasible;
          Alcotest.test_case "fix binaries" `Quick test_presolve_fixes_binaries;
        ] );
      ("properties", qsuite);
    ]
