(* One-shot LP solving on top of the persistent state in
   {!Simplex_core}: build, Phase I, install the objective, Phase II,
   extract. See simplex_core.ml for the tableau mechanics. *)

type pricing = Simplex_core.pricing = Dantzig | Devex | Bland

type result =
  | Optimal of { obj : float; x : float array }
  | Infeasible
  | Unbounded
  | Iteration_limit

(* Cold path shared by [solve] and [solve_warm]; returns the solved core
   state alongside the result so warm callers can snapshot the basis. *)
let solve_core ?pricing ?counters ?bounds ~max_iters ~deadline
    (p : Problem.t) =
  match Simplex_core.build ?pricing ?counters ?bounds p with
  | None -> (Infeasible, None)
  | Some tb ->
    (match Simplex_core.phase1 tb ~max_iters ~deadline with
     | `Infeasible -> (Infeasible, None)
     | `Limit -> (Iteration_limit, None)
     | `Feasible ->
       Simplex_core.install_objective tb;
       (match Simplex_core.phase2 tb ~max_iters ~deadline with
        | `Unbounded -> (Unbounded, None)
        | `Iteration_limit -> (Iteration_limit, None)
        | `Optimal ->
          let x = Simplex_core.solution tb in
          let obj = Simplex_core.objective_value tb in
          (Optimal { obj; x }, Some tb)))

let solve ?pricing ?counters ?bounds ?(max_iters = 200_000)
    ?(deadline = infinity) (p : Problem.t) : result =
  fst (solve_core ?pricing ?counters ?bounds ~max_iters ~deadline p)

type warm_result = {
  wr_result : result;
  wr_basis : Simplex_core.Basis.t option;
      (* snapshot of the optimal basis, for reuse by the next solve *)
  wr_warm : bool; (* the restored basis produced the answer *)
}

let solve_warm ?counters ?bounds ?(max_iters = 200_000)
    ?(deadline = infinity) ?basis (p : Problem.t) : warm_result =
  let cold () =
    let result, tb = solve_core ?counters ?bounds ~max_iters ~deadline p in
    { wr_result = result;
      wr_basis = Option.map Simplex_core.snapshot tb;
      wr_warm = false }
  in
  match basis with
  | None -> cold ()
  | Some b -> (
    match
      Simplex_core.restore ?counters ?bounds ~max_iters ~deadline b p
    with
    | `Infeasible_bounds ->
      (* crossed bounds are detected before any basis work: exact either
         way, and the restored basis played no part *)
      { wr_result = Infeasible; wr_basis = None; wr_warm = false }
    | `Optimal tb ->
      let x = Simplex_core.solution tb in
      let obj = Simplex_core.objective_value tb in
      {
        wr_result = Optimal { obj; x };
        wr_basis = Some (Simplex_core.snapshot tb);
        wr_warm = true;
      }
    | `Unbounded -> { wr_result = Unbounded; wr_basis = None; wr_warm = true }
    | `Limit ->
      { wr_result = Iteration_limit; wr_basis = None; wr_warm = true }
    | `Cold_needed -> cold ())
