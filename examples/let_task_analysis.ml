(* Section V.C of the paper: schedulability of the application tasks when
   the LET tasks' DMA-programming segments (generalized multiframe,
   self-suspending) are modelled as sporadic interference at the highest
   priority.

   Run with: dune exec examples/let_task_analysis.exe *)

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
  let platform = App.platform app in
  Fmt.pr "LET-task segments per core (C = o_DP + o_ISR = %a each):@."
    Time.pp (Platform.lambda_o platform);
  for core = 0 to platform.Platform.n_cores - 1 do
    let segs = Letdma.Let_task.segments app groups solution ~core in
    Fmt.pr "core P%d: %d segments@.%a@." (core + 1) (List.length segs)
      Letdma.Let_task.pp_segments segs
  done;
  let jitter = gamma in
  Fmt.pr "@.response times with vs without LET-task interference (jitter = gamma):@.";
  List.iter
    (fun (t : Task.t) ->
      let base = Rt_analysis.Rta.response_time app ~jitter t.Task.id in
      let full =
        Letdma.Let_task.response_time_with_let app groups solution ~jitter
          t.Task.id
      in
      match (base, full) with
      | Some b, Some f ->
        Fmt.pr "  %-6s R = %8.1fus -> %8.1fus (+%.1fus)@." t.Task.name
          (Time.to_us_float b) (Time.to_us_float f)
          (Time.to_us_float Time.(f - b))
      | _ -> Fmt.pr "  %-6s diverged@." t.Task.name)
    (App.tasks app);
  Fmt.pr "@.system schedulable including the LET machinery: %b@."
    (Letdma.Let_task.schedulable_with_let app groups solution ~jitter)
