(** Optimal memory allocation and scheduling for DMA data transfers under
    the LET paradigm — the paper's core contribution.

    - {!Formulation}: the MILP of Section VI (Constraints 1-10, objectives
      Eq. (4)/(5)), with lazy or full Constraint-6 generation;
    - {!Solve}: the branch-and-bound driver with the lazy contiguity loop;
    - {!Solution}: decoded allocations + ordered transfer slots, projected
      onto every communication instant;
    - {!Heuristic}: a greedy scheduler/allocator (warm starts, scalability
      ablations);
    - {!Baselines}: the Giotto-CPU / Giotto-DMA-A / Giotto-DMA-B baselines
      of the evaluation;
    - {!Certify}: independent re-verification of every solved
      configuration (MILP residuals, layout rules, LET Properties 1-3);
    - {!Pipeline}: the hardened entry point — model validation, one
      global deadline, and the MILP -> heuristic -> baseline degradation
      ladder, whose rungs and fallback plans the service's QoS tiers
      reuse;
    - {!Experiment} and {!Report}: [Experiment.prepare], the front door
      every path from a request to a plan goes through (the LET groups
      and Section VII's gamma, or a rejection), and the Fig. 2 / Table I
      / alpha-sweep pipelines with their plain-text rendering. *)

module Certify = Certify
module Formulation = Formulation
module Pipeline = Pipeline
module Solve = Solve
module Solution = Solution
module Heuristic = Heuristic
module Baselines = Baselines
module Experiment = Experiment
module Report = Report
module Fig1 = Fig1
module Let_task = Let_task
