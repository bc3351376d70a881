open Let_sem
open Mem_layout
open Dma_sim

(* The four communication approaches compared in the paper's evaluation
   (Section VII), expressed as simulator modes. *)

type approach = Proposed | Giotto_cpu | Giotto_dma_a | Giotto_dma_b

let approach_name = function
  | Proposed -> "Proposed"
  | Giotto_cpu -> "Giotto-CPU"
  | Giotto_dma_a -> "Giotto-DMA-A"
  | Giotto_dma_b -> "Giotto-DMA-B"

let all_approaches = [ Proposed; Giotto_cpu; Giotto_dma_a; Giotto_dma_b ]

(* (i) the paper's protocol: optimized transfers, per-task readiness. *)
let proposed_mode app groups solution =
  Sim.Dma_protocol (Solution.schedule app groups solution)

(* (ii) Giotto with CPU copies, the cores copying in parallel phases. *)
let giotto_cpu_mode = Sim.Cpu_copy Sim.Parallel_phases

(* (iii) Giotto with a DMA, one transfer per communication (no memory
   layout knowledge), barrier readiness. *)
let giotto_dma_a_mode app groups =
  Sim.Dma_barrier
    (fun time -> Giotto.singleton_transfers app (Groups.comms_at groups time))

(* The Giotto-DMA-A plan as a solution: identity allocation, one
   transfer per communication at s0 in Giotto order. *)
let giotto_solution app groups =
  Solution.make ~allocation:(Allocation.identity app)
    ~slots:(Array.of_list (Giotto.singleton_transfers app (Groups.s0 groups)))

(* (iv) Giotto order and barrier, but transfers grouped as much as the
   optimized memory layout allows. *)
let giotto_dma_b_plan app allocation comms =
  let ordered = Giotto.order app comms in
  let groups = ref [] and current = ref [] in
  let flush () =
    if !current <> [] then groups := List.rev !current :: !groups;
    current := []
  in
  List.iter
    (fun c ->
      match !current with
      | [] -> current := [ c ]
      | prev :: _ ->
        let same_class = Comm.cls app c = Comm.cls app prev in
        let ok =
          same_class
          &&
          let src = Allocation.layout allocation (Comm.src_memory app c) in
          let dst = Allocation.layout allocation (Comm.dst_memory app c) in
          Layout.transferable ~src ~dst
            (List.map (fun x -> x.Comm.label) (c :: !current))
        in
        if ok then current := c :: !current else begin
          flush ();
          current := [ c ]
        end)
    ordered;
  flush ();
  List.rev !groups

let giotto_dma_b_mode app groups allocation =
  Sim.Dma_barrier
    (fun time -> giotto_dma_b_plan app allocation (Groups.comms_at groups time))

(* Run one approach; [solution] is required for Proposed and Giotto-DMA-B. *)
let run ?record_trace app groups approach ~solution =
  let mode =
    match approach with
    | Proposed ->
      (match solution with
       | Some s -> proposed_mode app groups s
       | None -> invalid_arg "Baselines.run: Proposed requires a solution")
    | Giotto_cpu -> giotto_cpu_mode
    | Giotto_dma_a -> giotto_dma_a_mode app groups
    | Giotto_dma_b ->
      (match solution with
       | Some s -> giotto_dma_b_mode app groups (Solution.allocation s)
       | None -> invalid_arg "Baselines.run: Giotto-DMA-B requires a solution")
  in
  Sim.run ?record_trace app groups mode
