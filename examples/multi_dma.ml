(* Extension beyond the paper: the protocol on platforms with several DMA
   channels. Transfers without LET-ordering dependencies (Properties 1-2)
   run in parallel; dependent chains stay serialized.

   Run with: dune exec examples/multi_dma.exe *)

open Rt_model

let () =
  let app = Workload.Waters2019.make () in
  let groups, gamma =
    match Letdma.Experiment.prepare app ~alpha:0.2 with
    | Ok p -> p
    | Error e ->
      Fmt.epr "%s@." (Letdma.Experiment.error_to_string e);
      exit 1
  in
  let solution =
    match Letdma.Heuristic.solve app groups ~gamma with
    | Ok s -> s
    | Error e -> failwith e
  in
  let schedule = Letdma.Solution.schedule app groups solution in
  let channels = [ 1; 2; 4; 8 ] in
  let metrics =
    List.map
      (fun c -> Dma_sim.Sim.run app groups (Dma_sim.Sim.Dma_multi (c, schedule)))
      channels
  in
  Fmt.pr "data-acquisition latency (us) with 1/2/4/8 DMA channels:@.";
  Fmt.pr "%-6s" "task";
  List.iter (fun c -> Fmt.pr " %9d-ch" c) channels;
  Fmt.pr "@.";
  List.iter
    (fun (t : Task.t) ->
      Fmt.pr "%-6s" t.Task.name;
      List.iter
        (fun m -> Fmt.pr " %12.1f" (Time.to_us_float m.Dma_sim.Sim.lambda.(t.Task.id)))
        metrics;
      Fmt.pr "@.")
    (App.tasks app);
  (* tasks whose transfers form a dependency chain cannot improve; verify
     the monotonicity invariant while we are here *)
  List.iter
    (fun (t : Task.t) ->
      let lams =
        List.map (fun m -> m.Dma_sim.Sim.lambda.(t.Task.id)) metrics
      in
      let rec mono = function
        | a :: (b :: _ as rest) -> Time.compare b a <= 0 && mono rest
        | _ -> true
      in
      assert (mono lams))
    (App.tasks app);
  Fmt.pr "@.(latencies are monotonically non-increasing in the channel count)@."
