(** The four communication approaches compared in the paper's evaluation
    (Section VII), as simulator modes. *)

open Rt_model
open Let_sem
open Mem_layout
open Dma_sim

type approach = Proposed | Giotto_cpu | Giotto_dma_a | Giotto_dma_b

val approach_name : approach -> string
val all_approaches : approach list

(** (i) the paper's protocol: optimized transfers, per-task readiness. *)
val proposed_mode : App.t -> Groups.t -> Solution.t -> Sim.mode

(** (ii) Giotto with CPU copies, under the {!Sim.Parallel_phases}
    contention model. *)
val giotto_cpu_mode : Sim.mode

(** (iii) Giotto with a DMA, one transfer per communication. *)
val giotto_dma_a_mode : App.t -> Groups.t -> Sim.mode

(** The last-resort plan of the pipeline's baseline rung and the
    service's baseline tier: identity allocation and one transfer per
    communication at s0, in Giotto order. It exists whenever the model is
    valid and communications exist. *)
val giotto_solution : App.t -> Groups.t -> Solution.t

(** The transfers Giotto-DMA-B issues for one instant: Giotto order,
    grouped as much as the given allocation allows. *)
val giotto_dma_b_plan :
  App.t -> Allocation.t -> Comm.Set.t -> Properties.plan

(** (iv) Giotto order and barrier with the optimized memory layout. *)
val giotto_dma_b_mode : App.t -> Groups.t -> Allocation.t -> Sim.mode

(** Run one approach over a hyperperiod. [solution] is required for
    [Proposed] and [Giotto_dma_b] (raises [Invalid_argument] otherwise). *)
val run :
  ?record_trace:bool ->
  App.t ->
  Groups.t ->
  approach ->
  solution:Solution.t option ->
  Sim.metrics
