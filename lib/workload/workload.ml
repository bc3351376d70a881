(** Workloads for the evaluation: the WATERS 2019 industrial case study, a
    seeded uniform random generator, and an automotive benchmark generator
    following the WATERS 2015 "real world benchmarks" statistics. *)

module Waters2019 = Waters2019
module Generator = Generator
module Automotive = Automotive

(** The workloads a request or a command line can name: the case study,
    the generator's default draws and its small draws (instances that
    solve to optimality in seconds). *)
type kind = Waters | Random | Small

(** Their wire and command-line names. *)
let kinds = [ ("waters", Waters); ("random", Random); ("small", Small) ]

(** [make ~labels_per_edge ~seed kind] builds the application:
    [labels_per_edge] splits each WATERS data flow, [seed] picks a
    generator draw. *)
let make ~labels_per_edge ~seed = function
  | Waters -> Waters2019.make ~labels_per_edge ()
  | Random -> Generator.random ~seed ()
  | Small -> Generator.random ~seed ~config:Generator.small_config ()
