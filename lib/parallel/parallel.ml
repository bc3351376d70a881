(** Multicore batch work on OCaml 5 domains. Each MILP solve is one
    sequential search; parallelism runs {e between} independent solves.

    Two layers, no global state:

    - {!Pool}: fixed-size domain pool with futures and exception
      funneling — the substrate of sweeps and of the service's
      request pool;
    - {!Sweep}: batch runner farming {e independent} instances with
      per-item deadlines carved from one shared absolute deadline. *)

module Pool = Pool
module Sweep = Sweep
