(** Self-contained mixed-integer linear programming toolkit.

    This library is the substrate replacing IBM CPLEX in the DAC 2021
    reproduction (no OCaml MILP bindings are available offline): a model
    builder ({!Problem} over {!Linexpr}), a dense two-phase bounded-variable
    primal simplex ({!Simplex} over the persistent {!Simplex_core}) and a
    best-first branch-and-bound driver ({!Branch_bound}) with warm-basis
    node reoptimization. All deadlines are absolute instants on the
    monotonic {!Clock}, so wall-clock jumps never bend a time limit and
    one deadline value is coherent across parallel solver domains. *)

module Clock = Clock
module Linexpr = Linexpr
module Problem = Problem
module Simplex = Simplex
module Simplex_core = Simplex_core
module Branch_bound = Branch_bound
module Presolve = Presolve
module Vec = Vec
