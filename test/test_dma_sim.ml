(* Tests for the discrete-event simulator: burst timing arithmetic,
   per-task vs barrier readiness, CPU models, overrun queueing, traces. *)

open Rt_model
open Let_sem
open Dma_sim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* 2 cores, 2 tasks, single flow t0 -> t1 of one 1000-byte label, both at
   10ms. Platform tuned for easy arithmetic: o_DP = 1us, o_ISR = 2us,
   DMA 1 ns/B, CPU 4 ns/B. *)
let platform () =
  Platform.make ~o_dp:(Time.of_us 1) ~o_isr:(Time.of_us 2) ~dma_ns_per_byte:1.0
    ~cpu_ns_per_byte:4.0 ~n_cores:2 ()

let fixture () =
  let tasks =
    [
      Task.make ~id:0 ~name:"prod" ~period:(Time.of_ms 10) ~wcet:(Time.of_ms 1)
        ~core:0;
      Task.make ~id:1 ~name:"cons" ~period:(Time.of_ms 10) ~wcet:(Time.of_ms 1)
        ~core:1;
    ]
  in
  let labels =
    [ Label.make ~id:0 ~name:"data" ~size:1000 ~writer:0 ~readers:[ 1 ] ]
  in
  App.make ~platform:(platform ()) ~tasks ~labels

let singleton_schedule app groups time =
  Giotto.singleton_transfers app (Groups.comms_at groups time)

(* per transfer: 1us programming + 1us copy (1000B at 1ns/B) + 2us ISR *)
let test_dma_protocol_latency () =
  let app = fixture () in
  let groups = Groups.compute app in
  let m = Sim.run app groups (Sim.Dma_protocol (singleton_schedule app groups)) in
  (* W then R: producer ready after transfer 0 (4us); consumer after
     transfer 1 (8us) *)
  check_int "producer lambda" (Time.of_us 4) (Sim.lambda_of m 0);
  check_int "consumer lambda" (Time.of_us 8) (Sim.lambda_of m 1);
  check_int "transfers per instant x instants" 2 m.Sim.transfers_issued;
  check_int "bytes" 2000 m.Sim.bytes_moved

let test_dma_barrier_latency () =
  let app = fixture () in
  let groups = Groups.compute app in
  let m = Sim.run app groups (Sim.Dma_barrier (singleton_schedule app groups)) in
  (* both tasks wait for the full burst *)
  check_int "producer lambda" (Time.of_us 8) (Sim.lambda_of m 0);
  check_int "consumer lambda" (Time.of_us 8) (Sim.lambda_of m 1)

let test_cpu_serialized () =
  let app = fixture () in
  let groups = Groups.compute app in
  let m = Sim.run app groups (Sim.Cpu_copy Sim.Serialized) in
  (* two copies of 1000B at 4ns/B, serialized: 8us for everyone *)
  check_int "producer lambda" (Time.of_us 8) (Sim.lambda_of m 0);
  check_int "consumer lambda" (Time.of_us 8) (Sim.lambda_of m 1);
  check_int "busy" (Time.of_us 8) m.Sim.busy

let test_cpu_parallel_phases () =
  let app = fixture () in
  let groups = Groups.compute app in
  let m = Sim.run app groups (Sim.Cpu_copy Sim.Parallel_phases) in
  (* write phase 4us on core 0, barrier, read phase 4us on core 1 *)
  check_int "producer lambda" (Time.of_us 8) (Sim.lambda_of m 0);
  check_int "consumer lambda" (Time.of_us 8) (Sim.lambda_of m 1)

(* grouping reduces latency: a single transfer carrying both comms is not
   possible (different directions), but a task with two labels grouped in
   one transfer pays the overhead once *)
let test_grouping_pays_overhead_once () =
  let platform = platform () in
  let tasks =
    [
      Task.make ~id:0 ~name:"w" ~period:(Time.of_ms 10) ~wcet:(Time.of_ms 1)
        ~core:0;
      Task.make ~id:1 ~name:"r" ~period:(Time.of_ms 10) ~wcet:(Time.of_ms 1)
        ~core:1;
    ]
  in
  let labels =
    [
      Label.make ~id:0 ~name:"a" ~size:500 ~writer:0 ~readers:[ 1 ];
      Label.make ~id:1 ~name:"b" ~size:500 ~writer:0 ~readers:[ 1 ];
    ]
  in
  let app = App.make ~platform ~tasks ~labels in
  let groups = Groups.compute app in
  let grouped time =
    let comms = Comm.Set.elements (Groups.comms_at groups time) in
    let writes, reads =
      List.partition (fun c -> c.Comm.kind = Comm.Write) comms
    in
    List.filter (fun g -> g <> []) [ writes; reads ]
  in
  let singles time =
    Giotto.singleton_transfers app (Groups.comms_at groups time)
  in
  let mg = Sim.run app groups (Sim.Dma_protocol grouped) in
  let ms_ = Sim.run app groups (Sim.Dma_protocol singles) in
  (* grouped: 2 transfers x (1 + 1 + 2)us = 8us; singleton: 4 x 3.5us = 14us *)
  check_int "grouped consumer" (Time.of_us 8) (Sim.lambda_of mg 1);
  check_int "singleton consumer" (Time.of_us 14) (Sim.lambda_of ms_ 1);
  check_bool "grouping wins" true
    (Time.compare (Sim.lambda_of mg 1) (Sim.lambda_of ms_ 1) < 0)

(* a task with no communications is ready immediately under the protocol,
   but waits under the Giotto barrier *)
let test_unrelated_task_readiness () =
  let platform = platform () in
  let tasks =
    [
      Task.make ~id:0 ~name:"w" ~period:(Time.of_ms 10) ~wcet:(Time.of_ms 1) ~core:0;
      Task.make ~id:1 ~name:"r" ~period:(Time.of_ms 10) ~wcet:(Time.of_ms 1) ~core:1;
      Task.make ~id:2 ~name:"idle" ~period:(Time.of_ms 10) ~wcet:(Time.of_ms 1) ~core:1;
    ]
  in
  let labels =
    [ Label.make ~id:0 ~name:"d" ~size:1000 ~writer:0 ~readers:[ 1 ] ]
  in
  let app = App.make ~platform ~tasks ~labels in
  let groups = Groups.compute app in
  let mp = Sim.run app groups (Sim.Dma_protocol (singleton_schedule app groups)) in
  let mb = Sim.run app groups (Sim.Dma_barrier (singleton_schedule app groups)) in
  check_int "protocol: unrelated task immediate" 0 (Sim.lambda_of mp 2);
  check_bool "barrier: unrelated task delayed" true
    (Time.compare (Sim.lambda_of mb 2) Time.zero > 0)

(* when a burst overruns the next instant, the DMA queues: latencies at
   the next instant grow *)
let test_overrun_queues () =
  let platform =
    Platform.make ~o_dp:(Time.of_ms 3) ~o_isr:(Time.of_ms 3) ~n_cores:2 ()
  in
  let tasks =
    [
      Task.make ~id:0 ~name:"w" ~period:(Time.of_ms 10) ~wcet:Time.zero ~core:0;
      Task.make ~id:1 ~name:"r" ~period:(Time.of_ms 5) ~wcet:Time.zero ~core:1;
    ]
  in
  let labels =
    [ Label.make ~id:0 ~name:"d" ~size:100 ~writer:0 ~readers:[ 1 ] ]
  in
  let app = App.make ~platform ~tasks ~labels in
  let groups = Groups.compute app in
  (* each transfer takes >= 6ms; at t=0 both W and R occur (12ms+), so the
     burst overruns the 5ms consumer instants *)
  let m = Sim.run app groups (Sim.Dma_protocol (singleton_schedule app groups)) in
  check_bool "consumer latency exceeds one period" true
    (Time.compare (Sim.lambda_of m 1) (Time.of_ms 5) > 0)

(* two independent producer/consumer pairs: a second DMA channel halves
   the critical path, while a single channel matches the base protocol
   exactly *)
let multi_fixture () =
  let platform = platform () in
  let tasks =
    [
      Task.make ~id:0 ~name:"w1" ~period:(Time.of_ms 10) ~wcet:(Time.of_ms 1) ~core:0;
      Task.make ~id:1 ~name:"r1" ~period:(Time.of_ms 10) ~wcet:(Time.of_ms 1) ~core:1;
      Task.make ~id:2 ~name:"w2" ~period:(Time.of_ms 10) ~wcet:(Time.of_ms 1) ~core:0;
      Task.make ~id:3 ~name:"r2" ~period:(Time.of_ms 10) ~wcet:(Time.of_ms 1) ~core:1;
    ]
  in
  let labels =
    [
      Label.make ~id:0 ~name:"d1" ~size:1000 ~writer:0 ~readers:[ 1 ];
      Label.make ~id:1 ~name:"d2" ~size:1000 ~writer:2 ~readers:[ 3 ];
    ]
  in
  App.make ~platform ~tasks ~labels

(* Every field of two runs' metrics, trace and fault counters included. *)
let check_same_metrics what (a : Sim.metrics) (b : Sim.metrics) =
  let field name = what ^ ": " ^ name in
  check_bool (field "lambda") true (a.Sim.lambda = b.Sim.lambda);
  check_bool (field "jobs") true (a.Sim.jobs = b.Sim.jobs);
  check_int (field "transfers") a.Sim.transfers_issued b.Sim.transfers_issued;
  check_int (field "bytes") a.Sim.bytes_moved b.Sim.bytes_moved;
  check_int (field "busy") a.Sim.busy b.Sim.busy;
  check_bool (field "trace") true (a.Sim.trace = b.Sim.trace);
  check_bool (field "fault stats") true (a.Sim.fault_stats = b.Sim.fault_stats)

(* One DMA channel is the protocol's engine: on the two-pair fixture, and
   on WATERS under the heuristic plan with and without injected faults,
   the two modes agree on every metric. *)
let test_multi_channel_single_equals_protocol () =
  let same what ?faults app groups schedule =
    let run mode = Sim.run ~record_trace:true ?faults app groups mode in
    let m = run (Sim.Dma_protocol schedule) in
    check_same_metrics what m (run (Sim.Dma_multi (1, schedule)));
    m
  in
  let app = multi_fixture () in
  let groups = Groups.compute app in
  ignore (same "fixture" app groups (singleton_schedule app groups));
  let app = Workload.Waters2019.make () in
  match Letdma.Experiment.prepare app ~alpha:0.2 with
  | Error e -> Alcotest.fail (Letdma.Experiment.error_to_string e)
  | Ok (groups, gamma) ->
    let plan =
      Option.get (Letdma.Heuristic.solve_unchecked app groups ~gamma)
    in
    let schedule = Letdma.Solution.schedule app groups plan in
    ignore (same "WATERS" app groups schedule);
    let faults = Faults.at_intensity ~seed:42 2.0 in
    let m = same "WATERS, faults" ~faults app groups schedule in
    match m.Sim.fault_stats with
    | Some s -> check_bool "faults injected" true (s.Faults.faulty_transfers > 0)
    | None -> Alcotest.fail "fault stats missing"

let test_multi_channel_parallelism () =
  let app = multi_fixture () in
  let groups = Groups.compute app in
  let schedule = singleton_schedule app groups in
  let m1 = Sim.run app groups (Sim.Dma_multi (1, schedule)) in
  let m2 = Sim.run app groups (Sim.Dma_multi (2, schedule)) in
  (* single channel: 4 transfers back to back of 4us each; r2's read is
     last at 16us. two channels: the two independent chains overlap:
     each chain = W then R = 8us *)
  check_int "one channel, last consumer" (Time.of_us 16) (Sim.lambda_of m1 3);
  check_int "two channels, last consumer" (Time.of_us 8) (Sim.lambda_of m2 3);
  (* no task is ever worse with more channels *)
  List.iter
    (fun (t : Task.t) ->
      check_bool "monotone" true
        (Time.compare (Sim.lambda_of m2 t.Task.id) (Sim.lambda_of m1 t.Task.id)
        <= 0))
    (App.tasks app)

let test_multi_channel_respects_dependencies () =
  (* a single chain (W then R on the same label) cannot be parallelized *)
  let app = fixture () in
  let groups = Groups.compute app in
  let schedule = singleton_schedule app groups in
  let m1 = Sim.run app groups (Sim.Dma_multi (1, schedule)) in
  let m4 = Sim.run app groups (Sim.Dma_multi (4, schedule)) in
  check_int "consumer unchanged" (Sim.lambda_of m1 1) (Sim.lambda_of m4 1)

let test_multi_channel_invalid () =
  let app = fixture () in
  let groups = Groups.compute app in
  check_bool "zero channels rejected" true
    (try
       ignore (Sim.run app groups (Sim.Dma_multi (0, singleton_schedule app groups)));
       false
     with Invalid_argument _ -> true)

let test_trace_recording () =
  let app = fixture () in
  let groups = Groups.compute app in
  let m =
    Sim.run ~record_trace:true app groups
      (Sim.Dma_protocol (singleton_schedule app groups))
  in
  check_bool "trace non-empty" true (m.Sim.trace <> []);
  (* events are time-sorted *)
  let rec sorted = function
    | a :: (b :: _ as rest) ->
      Time.compare (Trace.start_of a) (Trace.start_of b) <= 0 && sorted rest
    | [ _ ] | [] -> true
  in
  check_bool "trace sorted" true (sorted m.Sim.trace);
  (* programming, copy, ISR and readiness all appear *)
  let has pred = List.exists pred m.Sim.trace in
  check_bool "has program" true
    (has (function Trace.Dma_program _ -> true | _ -> false));
  check_bool "has copy" true
    (has (function Trace.Dma_copy _ -> true | _ -> false));
  check_bool "has isr" true
    (has (function Trace.Dma_isr _ -> true | _ -> false));
  check_bool "has ready" true
    (has (function Trace.Task_ready _ -> true | _ -> false));
  (* the Gantt renderer produces one lane per core plus the DMA *)
  let gantt = Trace.render_gantt app m.Sim.trace in
  check_int "gantt lines" 4
    (List.length (String.split_on_char '\n' (String.trim gantt)))

(* Regression (PR 4): the Gantt renderer clamped every span to at least
   one cell ([max c0 c1]), so zero-duration events were painted one cell
   wide — an instantaneous DMA program looked like real bus occupancy.
   Zero-width spans must paint nothing; instantaneous [Task_ready] marks
   keep their one-cell [^]; and each lane must have its own backing
   buffer (the init was once duplicated, aliasing rows). *)
let test_gantt_zero_width () =
  let app = fixture () in
  let t = Time.of_us 10 in
  (* zero-duration program on the DMA lane + a ready mark on core 1 *)
  let events =
    [
      Trace.Dma_program { core = 0; index = 0; start = t; finish = t };
      Trace.Task_ready { task = 1; time = Time.of_us 20 };
    ]
  in
  let gantt = Trace.render_gantt ~width:40 app events in
  let lines = String.split_on_char '\n' (String.trim gantt) in
  (* header + DMA lane + one lane per core *)
  check_int "gantt lines" 4 (List.length lines);
  let lane prefix =
    match List.find_opt (fun l -> String.length l >= 3 && String.sub l 0 3 = prefix) lines with
    | Some l -> l
    | None -> Alcotest.fail ("missing lane " ^ prefix)
  in
  check_bool "zero-width program paints nothing" false
    (String.contains (lane "DMA") 'p');
  check_bool "ready mark still painted" true (String.contains (lane "P2 ") '^');
  check_bool "lanes do not alias" false (String.contains (lane "P1 ") '^');
  (* a span shorter than one cell still shows its cell *)
  let events =
    [
      Trace.Dma_program
        { core = 0; index = 0; start = t; finish = Time.(t + of_ns 1) };
      Trace.Task_ready { task = 1; time = Time.of_us 20 };
    ]
  in
  let gantt = Trace.render_gantt ~width:40 app events in
  check_bool "sub-cell span shows one cell" true (String.contains gantt 'p')

let test_vcd_export () =
  let app = fixture () in
  let groups = Groups.compute app in
  let m =
    Sim.run ~record_trace:true app groups
      (Sim.Dma_protocol (singleton_schedule app groups))
  in
  let vcd = Vcd.to_vcd app m.Sim.trace in
  let has sub =
    let n = String.length vcd and k = String.length sub in
    let rec go i = i + k <= n && (String.sub vcd i k = sub || go (i + 1)) in
    go 0
  in
  check_bool "has header" true (has "$timescale 1ns $end");
  check_bool "declares dma_prog" true (has "dma_prog");
  check_bool "declares per-task ready events" true (has "ready_prod");
  check_bool "has dumpvars" true (has "$dumpvars");
  (* timestamps present and the first one is #0 *)
  check_bool "starts at time 0" true (has "#0\n");
  (* a transfer index change is dumped as an 8-bit vector *)
  check_bool "vector change" true (has "b00000000");
  (* deterministic: same trace, same dump *)
  Alcotest.(check string) "deterministic" vcd (Vcd.to_vcd app m.Sim.trace)

let test_vcd_cpu_mode () =
  let app = fixture () in
  let groups = Groups.compute app in
  let m = Sim.run ~record_trace:true app groups (Sim.Cpu_copy Sim.Serialized) in
  let vcd = Vcd.to_vcd app m.Sim.trace in
  let has sub =
    let n = String.length vcd and k = String.length sub in
    let rec go i = i + k <= n && (String.sub vcd i k = sub || go (i + 1)) in
    go 0
  in
  check_bool "core copy activity dumped" true (has "core1_copy")

let test_no_trace_by_default () =
  let app = fixture () in
  let groups = Groups.compute app in
  let m = Sim.run app groups (Sim.Dma_protocol (singleton_schedule app groups)) in
  check_bool "no trace" true (m.Sim.trace = [])

let test_jobs_enumeration () =
  let app = fixture () in
  let groups = Groups.compute app in
  let m = Sim.run app groups (Sim.Dma_protocol (singleton_schedule app groups)) in
  (* hyperperiod 10ms: one job per task *)
  check_int "jobs" 2 (List.length m.Sim.jobs);
  List.iter
    (fun j ->
      check_bool "ready after release" true
        (Time.compare j.Sim.ready j.Sim.release >= 0))
    m.Sim.jobs

let test_horizon_override () =
  let app = fixture () in
  let groups = Groups.compute app in
  let m =
    Sim.run ~horizon:(Time.of_ms 30) app groups
      (Sim.Dma_protocol (singleton_schedule app groups))
  in
  check_int "3 jobs per task" 6 (List.length m.Sim.jobs)

let test_max_lambda_ratio () =
  let app = fixture () in
  let groups = Groups.compute app in
  let m = Sim.run app groups (Sim.Dma_protocol (singleton_schedule app groups)) in
  (* consumer: 8us / 10ms = 8e-4 *)
  Alcotest.(check (float 1e-9)) "ratio" 8.0e-4 (Sim.max_lambda_ratio app m)

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)
(* ------------------------------------------------------------------ *)

let test_faults_make_validation () =
  let raises name f =
    check_bool name true (try ignore (f ()); false with Invalid_argument _ -> true)
  in
  raises "negative stretch" (fun () ->
      Faults.make ~latency_stretch:(-0.1) ~seed:1 ());
  raises "fail rate of 1" (fun () ->
      Faults.make ~transient_fail_rate:1.0 ~seed:1 ());
  raises "negative fail rate" (fun () ->
      Faults.make ~transient_fail_rate:(-0.5) ~seed:1 ());
  raises "drop rate of 1.5" (fun () ->
      Faults.make ~drop_isr_rate:1.5 ~seed:1 ());
  raises "negative retries" (fun () -> Faults.make ~max_retries:(-1) ~seed:1 ());
  raises "negative intensity" (fun () -> Faults.at_intensity (-1.0));
  check_bool "none is zero" true (Faults.is_zero Faults.none);
  check_bool "intensity 0 is zero" true (Faults.is_zero (Faults.at_intensity 0.0));
  check_bool "intensity 1 is not zero" false
    (Faults.is_zero (Faults.at_intensity 1.0))

(* The acceptance bar for the fault model: injecting a zero-rate model
   must reproduce the fault-free simulation byte for byte — same events,
   same timestamps, same rendered VCD. *)
let test_zero_intensity_trace_identical () =
  let app = fixture () in
  let groups = Groups.compute app in
  let mode = Sim.Dma_protocol (singleton_schedule app groups) in
  let plain = Sim.run ~record_trace:true app groups mode in
  List.iter
    (fun faults ->
      let faulted = Sim.run ~record_trace:true ~faults app groups mode in
      check_bool "trace byte-identical" true (plain.Sim.trace = faulted.Sim.trace);
      Alcotest.(check string) "rendered VCD byte-identical"
        (Vcd.to_vcd app plain.Sim.trace)
        (Vcd.to_vcd app faulted.Sim.trace);
      Alcotest.(check string) "rendered Gantt byte-identical"
        (Trace.render_gantt app plain.Sim.trace)
        (Trace.render_gantt app faulted.Sim.trace);
      Array.iteri
        (fun i l -> check_int "lambda identical" l faulted.Sim.lambda.(i))
        plain.Sim.lambda;
      check_int "busy identical" plain.Sim.busy faulted.Sim.busy;
      (* the injector ran but recorded no faults *)
      match faulted.Sim.fault_stats with
      | None -> Alcotest.fail "fault stats missing"
      | Some s ->
        check_int "no retries" 0 s.Faults.retries;
        check_int "no dropped isrs" 0 s.Faults.dropped_isrs;
        check_int "no stretch" 0 (Time.to_ns s.Faults.stretch_total))
    [ Faults.none; Faults.at_intensity 0.0; Faults.at_intensity ~seed:7 0.0 ];
  check_bool "no stats without injection" true (plain.Sim.fault_stats = None)

let test_fault_injection_deterministic () =
  let app = fixture () in
  let groups = Groups.compute app in
  let mode = Sim.Dma_protocol (singleton_schedule app groups) in
  let faults = Faults.at_intensity ~seed:42 2.0 in
  let a = Sim.run ~record_trace:true ~faults app groups mode in
  let b = Sim.run ~record_trace:true ~faults app groups mode in
  check_bool "same seed, same trace" true (a.Sim.trace = b.Sim.trace);
  Array.iteri
    (fun i l -> check_int "same seed, same lambda" l b.Sim.lambda.(i))
    a.Sim.lambda

let test_faults_only_delay () =
  let app = fixture () in
  let groups = Groups.compute app in
  let mode = Sim.Dma_protocol (singleton_schedule app groups) in
  let plain = Sim.run app groups mode in
  let faults = Faults.at_intensity ~seed:42 5.0 in
  let faulted = Sim.run ~faults app groups mode in
  (* faults add time to transfers; no task can become ready earlier *)
  Array.iteri
    (fun i l ->
      check_bool "latency never shrinks under faults" true
        (Time.compare faulted.Sim.lambda.(i) l >= 0))
    plain.Sim.lambda;
  (* at this intensity the injector must actually have fired *)
  match faulted.Sim.fault_stats with
  | None -> Alcotest.fail "fault stats missing"
  | Some s ->
    check_bool "some fault recorded" true
      (s.Faults.retries > 0 || s.Faults.dropped_isrs > 0
      || Time.compare s.Faults.stretch_total Time.zero > 0)

let test_robustness_sweep () =
  let app = fixture () in
  let groups = Groups.compute app in
  let schedule = singleton_schedule app groups in
  let intensities = [ 0.0; 0.5; 2.0 ] in
  let reports = Robustness.sweep ~seed:42 ~intensities app groups schedule in
  check_int "one report per intensity" 3 (List.length reports);
  List.iter2
    (fun want (r : Robustness.report) ->
      Alcotest.(check (float 0.0)) "intensity echoed" want r.Robustness.intensity;
      check_bool "worst ratio nonnegative" true (r.Robustness.worst_ratio >= 0.0);
      (* consistency: a zero overrun iff Property 3 held *)
      check_bool "overrun consistent with P3" true
        (r.Robustness.property3_ok
         = (Time.compare r.Robustness.max_overrun Time.zero <= 0)))
    intensities reports;
  (* this fixture has milliseconds of slack per 10ms period: everything
     survives modest fault intensity *)
  let r0 = List.hd reports in
  check_bool "fault-free run survives" true (Robustness.survives r0);
  check_bool "ordering at zero" true r0.Robustness.ordering_ok;
  check_bool "no break at these intensities" true
    (Robustness.first_break ~seed:42 ~intensities app groups schedule = None);
  (* determinism of the whole sweep under a fixed seed *)
  let again = Robustness.sweep ~seed:42 ~intensities app groups schedule in
  List.iter2
    (fun (a : Robustness.report) (b : Robustness.report) ->
      check_bool "sweep deterministic" true (a = b))
    reports again

(* a workload whose nominal burst already fills most of the gap breaks
   once copies stretch: first_break pinpoints the intensity *)
let test_robustness_first_break () =
  let platform =
    Platform.make ~o_dp:(Time.of_us 1) ~o_isr:(Time.of_us 2)
      ~dma_ns_per_byte:1.0 ~cpu_ns_per_byte:4.0 ~n_cores:2 ()
  in
  let tasks =
    [
      Task.make ~id:0 ~name:"w" ~period:(Time.of_ms 10) ~wcet:(Time.of_ms 1)
        ~core:0;
      Task.make ~id:1 ~name:"r" ~period:(Time.of_ms 10) ~wcet:(Time.of_ms 1)
        ~core:1;
    ]
  in
  (* 4 MB at 1 ns/B: each copy is 4ms, the nominal burst ~8ms of a 10ms
     gap — any meaningful stretch overruns *)
  let labels =
    [ Label.make ~id:0 ~name:"big" ~size:4_000_000 ~writer:0 ~readers:[ 1 ] ]
  in
  let app = App.make ~platform ~tasks ~labels in
  let groups = Groups.compute app in
  let schedule = singleton_schedule app groups in
  let intensities = [ 0.0; 5.0 ] in
  (match Robustness.first_break ~seed:42 ~intensities app groups schedule with
   | None -> Alcotest.fail "expected a break at intensity 5"
   | Some (x, r) ->
     Alcotest.(check (float 0.0)) "breaks at 5" 5.0 x;
     check_bool "report fails survives" false (Robustness.survives r);
     check_bool "a timing property broke" true
       (not r.Robustness.property3_ok || not r.Robustness.deadlines_ok);
     (* ordering is structural: it survives any intensity *)
     check_bool "ordering survives" true r.Robustness.ordering_ok);
  (* the report renders *)
  let reports = Robustness.sweep ~seed:42 ~intensities app groups schedule in
  List.iter
    (fun r -> check_bool "pp_report non-empty" true
        (String.length (Fmt.str "%a" Robustness.pp_report r) > 0))
    reports

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

(* zero-intensity injection is invisible on arbitrary workloads too *)
let prop_zero_intensity_invisible =
  QCheck.Test.make ~name:"zero-intensity faults reproduce fault-free run"
    ~count:20
    QCheck.(int_range 0 500)
    (fun seed ->
      let app = Workload.Generator.random ~seed () in
      let groups = Groups.compute app in
      let schedule time =
        Giotto.singleton_transfers app (Groups.comms_at groups time)
      in
      let mode = Sim.Dma_protocol schedule in
      let plain = Sim.run ~record_trace:true app groups mode in
      let faulted =
        Sim.run ~record_trace:true ~faults:(Faults.at_intensity ~seed 0.0) app
          groups mode
      in
      plain.Sim.trace = faulted.Sim.trace
      && plain.Sim.lambda = faulted.Sim.lambda)

(* barrier readiness dominates protocol readiness for every task *)
let prop_barrier_dominates_protocol =
  QCheck.Test.make ~name:"barrier latency >= protocol latency" ~count:25
    QCheck.(int_range 0 500)
    (fun seed ->
      let app = Workload.Generator.random ~seed () in
      let groups = Groups.compute app in
      if Comm.Set.is_empty (Groups.s0 groups) then true
      else begin
        let schedule time =
          Giotto.singleton_transfers app (Groups.comms_at groups time)
        in
        let mp = Sim.run app groups (Sim.Dma_protocol schedule) in
        let mb = Sim.run app groups (Sim.Dma_barrier schedule) in
        List.for_all
          (fun (t : Task.t) ->
            Time.compare
              (Sim.lambda_of mp t.Task.id)
              (Sim.lambda_of mb t.Task.id)
            <= 0)
          (App.tasks app)
      end)

(* more channels never hurt any task, on arbitrary workloads *)
let prop_multi_channel_monotone =
  QCheck.Test.make ~name:"latency monotone in DMA channel count" ~count:20
    QCheck.(pair (int_range 0 500) (int_range 2 4))
    (fun (seed, channels) ->
      let app = Workload.Generator.random ~seed () in
      let groups = Groups.compute app in
      let schedule time =
        Giotto.singleton_transfers app (Groups.comms_at groups time)
      in
      let m1 = Sim.run app groups (Sim.Dma_multi (1, schedule)) in
      let mk = Sim.run app groups (Sim.Dma_multi (channels, schedule)) in
      List.for_all
        (fun (t : Task.t) ->
          Time.compare
            (Sim.lambda_of mk t.Task.id)
            (Sim.lambda_of m1 t.Task.id)
          <= 0)
        (App.tasks app))

(* simulated busy time equals the analytic plan duration summed over
   instants *)
let prop_busy_matches_analytic_duration =
  QCheck.Test.make ~name:"busy time matches Properties.duration" ~count:25
    QCheck.(int_range 0 500)
    (fun seed ->
      let app = Workload.Generator.random ~seed () in
      let groups = Groups.compute app in
      let schedule time =
        Giotto.singleton_transfers app (Groups.comms_at groups time)
      in
      let m = Sim.run app groups (Sim.Dma_protocol schedule) in
      let expected =
        List.fold_left
          (fun acc t -> Time.(acc + Properties.duration app (schedule t)))
          Time.zero (Groups.instants groups)
      in
      Time.equal m.Sim.busy expected)

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_barrier_dominates_protocol;
        prop_multi_channel_monotone;
        prop_busy_matches_analytic_duration;
        prop_zero_intensity_invisible;
      ]
  in
  Alcotest.run "dma_sim"
    [
      ( "timing",
        [
          Alcotest.test_case "protocol latency" `Quick test_dma_protocol_latency;
          Alcotest.test_case "barrier latency" `Quick test_dma_barrier_latency;
          Alcotest.test_case "cpu serialized" `Quick test_cpu_serialized;
          Alcotest.test_case "cpu parallel phases" `Quick test_cpu_parallel_phases;
          Alcotest.test_case "grouping pays overhead once" `Quick
            test_grouping_pays_overhead_once;
          Alcotest.test_case "unrelated task readiness" `Quick
            test_unrelated_task_readiness;
          Alcotest.test_case "overrun queues on the DMA" `Quick test_overrun_queues;
        ] );
      ( "multi-channel",
        [
          Alcotest.test_case "1 channel equals protocol" `Quick
            test_multi_channel_single_equals_protocol;
          Alcotest.test_case "independent chains overlap" `Quick
            test_multi_channel_parallelism;
          Alcotest.test_case "dependencies respected" `Quick
            test_multi_channel_respects_dependencies;
          Alcotest.test_case "invalid channel count" `Quick
            test_multi_channel_invalid;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "jobs enumeration" `Quick test_jobs_enumeration;
          Alcotest.test_case "horizon override" `Quick test_horizon_override;
          Alcotest.test_case "max lambda ratio" `Quick test_max_lambda_ratio;
        ] );
      ( "faults",
        [
          Alcotest.test_case "model validation" `Quick test_faults_make_validation;
          Alcotest.test_case "zero intensity is byte-identical" `Quick
            test_zero_intensity_trace_identical;
          Alcotest.test_case "deterministic under a seed" `Quick
            test_fault_injection_deterministic;
          Alcotest.test_case "faults only delay" `Quick test_faults_only_delay;
          Alcotest.test_case "robustness sweep" `Quick test_robustness_sweep;
          Alcotest.test_case "first break" `Quick test_robustness_first_break;
        ] );
      ( "trace",
        [
          Alcotest.test_case "recording" `Quick test_trace_recording;
          Alcotest.test_case "off by default" `Quick test_no_trace_by_default;
          Alcotest.test_case "zero-width spans paint nothing" `Quick
            test_gantt_zero_width;
          Alcotest.test_case "vcd export" `Quick test_vcd_export;
          Alcotest.test_case "vcd cpu mode" `Quick test_vcd_cpu_mode;
        ] );
      ("properties", qsuite);
    ]
