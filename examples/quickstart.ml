(* Quickstart: model a small two-core application, derive its necessary
   LET communications, plan DMA transfers with the greedy heuristic, and
   measure data-acquisition latencies in the simulator.

   Run with: dune exec examples/quickstart.exe *)

open Rt_model
open Let_sem

let () =
  (* 1. Platform: two cores with scratchpads, one DMA (paper defaults:
        o_DP = 3.36us, o_ISR = 10us). *)
  let platform = Platform.make ~n_cores:2 () in

  (* 2. Tasks: a 10ms sensor producer on core 0, a 10ms controller and a
        40ms logger on core 1. *)
  let tasks =
    [
      Task.make ~id:0 ~name:"sensor" ~period:(Time.of_ms 10)
        ~wcet:(Time.of_ms 2) ~core:0;
      Task.make ~id:1 ~name:"control" ~period:(Time.of_ms 10)
        ~wcet:(Time.of_ms 3) ~core:1;
      Task.make ~id:2 ~name:"logger" ~period:(Time.of_ms 40)
        ~wcet:(Time.of_ms 5) ~core:1;
    ]
  in

  (* 3. Labels: the sensor sample crosses cores (DMA-managed); the
        controller's setpoint goes back to core 0 and is also read by the
        logger on the controller's own core (that pair uses double
        buffering, not the DMA). *)
  let labels =
    [
      Label.make ~id:0 ~name:"sample" ~size:65536 ~writer:0 ~readers:[ 1 ];
      Label.make ~id:1 ~name:"setpoint" ~size:64 ~writer:1 ~readers:[ 0; 2 ];
    ]
  in
  let app = App.make ~platform ~tasks ~labels in
  Fmt.pr "%a@.@." App.pp app;

  (* 4-5. Necessary LET communications (Algorithm 1) and the
        data-acquisition deadlines from the sensitivity analysis, or why
        the configuration is turned away. Note how the logger's
        oversampled reads are skipped. *)
  let groups, gamma =
    match Letdma.Experiment.prepare app ~alpha:0.3 with
    | Ok p -> p
    | Error e ->
      Fmt.epr "%s@." (Letdma.Experiment.error_to_string e);
      exit 1
  in
  Fmt.pr "%a@.@." Groups.pp groups;

  (* 6. Plan transfers and allocate memory with the heuristic. *)
  let solution =
    match Letdma.Heuristic.solve app groups ~gamma with
    | Ok s -> s
    | Error e -> failwith e
  in
  Fmt.pr "%a@.@." (Letdma.Solution.pp app) solution;

  (* 7. Simulate one hyperperiod under the DMA protocol and under the
        Giotto-CPU baseline, and compare latencies. *)
  let proposed =
    Letdma.Baselines.run app groups Letdma.Baselines.Proposed
      ~solution:(Some solution)
  in
  let giotto =
    Letdma.Baselines.run app groups Letdma.Baselines.Giotto_cpu ~solution:None
  in
  List.iter
    (fun (t : Task.t) ->
      let l m = Time.to_us_float m.Dma_sim.Sim.lambda.(t.Task.id) in
      Fmt.pr "%-8s lambda: %8.1fus (proposed)  %8.1fus (Giotto-CPU)@."
        t.Task.name (l proposed) (l giotto))
    (App.tasks app)
