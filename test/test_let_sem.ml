(* Tests for the LET semantics library: skip functions (Eqs. (1)-(2)),
   Algorithm 1 grouping, Giotto ordering, Properties 1-3 checkers. *)

open Rt_model
open Let_sem

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let times = Alcotest.(list int)

let ms = Time.of_ms

(* ------------------------------------------------------------------ *)
(* Eta: necessary communication instants                               *)
(* ------------------------------------------------------------------ *)

let test_eta_equal_periods () =
  Alcotest.check times "writes" [ 0 ] (Eta.write_instants ~tw:(ms 10) ~tc:(ms 10));
  Alcotest.check times "reads" [ 0 ] (Eta.read_instants ~tw:(ms 10) ~tc:(ms 10))

(* writer oversampled: T_w = 5, T_c = 10. Writes at 5, 15, ... are
   overwritten unread and skipped. *)
let test_eta_oversampled_writer () =
  Alcotest.check times "writes" [ 0 ] (Eta.write_instants ~tw:(ms 5) ~tc:(ms 10));
  (* every read is needed *)
  Alcotest.check times "reads" [ 0 ] (Eta.read_instants ~tw:(ms 5) ~tc:(ms 10))

(* consumer oversampled: T_w = 10, T_c = 5. Reads at 5, 15, ... see
   unchanged data and are skipped. *)
let test_eta_oversampled_reader () =
  Alcotest.check times "writes" [ 0 ] (Eta.write_instants ~tw:(ms 10) ~tc:(ms 5));
  Alcotest.check times "reads" [ 0 ] (Eta.read_instants ~tw:(ms 10) ~tc:(ms 5))

(* non-harmonic pair: T_w = 15, T_c = 10, lcm = 30.
   Reads at 0, 10, 20; writes at 0, 15.
   Necessary writes: last write at/before each read: 0 (for 0 and 10), 15
   (for 20) -> both.
   Necessary reads: first read at/after each write: 0, 20 (read at 10 sees
   the same data as the read at 0). *)
let test_eta_non_harmonic () =
  Alcotest.check times "writes" [ 0; ms 15 ]
    (Eta.write_instants ~tw:(ms 15) ~tc:(ms 10));
  Alcotest.check times "reads" [ 0; ms 20 ]
    (Eta.read_instants ~tw:(ms 15) ~tc:(ms 10))

(* the symmetric non-harmonic case: T_w = 10, T_c = 15, lcm = 30.
   Writes at 0, 10, 20; reads at 0, 15.
   Necessary writes: last at/before 0 -> 0; last at/before 15 -> 10; (and
   for the read at 30 of the next cycle -> write 30 = 0). Write at 20 is
   skipped.
   Necessary reads: all (consumer slower): 0, 15. *)
let test_eta_non_harmonic_sym () =
  Alcotest.check times "writes" [ 0; ms 10 ]
    (Eta.write_instants ~tw:(ms 10) ~tc:(ms 15));
  Alcotest.check times "reads" [ 0; ms 15 ]
    (Eta.read_instants ~tw:(ms 10) ~tc:(ms 15))

let test_eta_membership () =
  check_bool "write at 0" true (Eta.write_needed_at ~tw:(ms 10) ~tc:(ms 15) 0);
  check_bool "write at 10" true
    (Eta.write_needed_at ~tw:(ms 10) ~tc:(ms 15) (ms 10));
  check_bool "write at 20 skipped" false
    (Eta.write_needed_at ~tw:(ms 10) ~tc:(ms 15) (ms 20));
  check_bool "write repeats at 30" true
    (Eta.write_needed_at ~tw:(ms 10) ~tc:(ms 15) (ms 30));
  check_bool "not a release" false
    (Eta.write_needed_at ~tw:(ms 10) ~tc:(ms 15) (ms 5));
  check_bool "read at 15" true
    (Eta.read_needed_at ~tw:(ms 10) ~tc:(ms 15) (ms 15))

let test_eta_invalid () =
  Alcotest.check_raises "zero period"
    (Invalid_argument "Eta.write_instants: periods must be positive")
    (fun () -> ignore (Eta.write_instants ~tw:0 ~tc:(ms 1)))

(* ------------------------------------------------------------------ *)
(* Groups: Algorithm 1                                                 *)
(* ------------------------------------------------------------------ *)

(* Fig. 1-like fixture: 2 cores, 6 tasks (t0,t2,t4 on core 0; t1,t3,t5 on
   core 1), inter-core labels l0: t0->t1, l1: t2->t3, l2: t4->t5,
   l3: t1->t4 (back edge). Harmonic periods 10/20/40. *)
let fixture () =
  let platform = Platform.make ~n_cores:2 () in
  let tasks =
    [
      Task.make ~id:0 ~name:"t0" ~period:(ms 10) ~wcet:(ms 1) ~core:0;
      Task.make ~id:1 ~name:"t1" ~period:(ms 10) ~wcet:(ms 1) ~core:1;
      Task.make ~id:2 ~name:"t2" ~period:(ms 20) ~wcet:(ms 2) ~core:0;
      Task.make ~id:3 ~name:"t3" ~period:(ms 20) ~wcet:(ms 2) ~core:1;
      Task.make ~id:4 ~name:"t4" ~period:(ms 40) ~wcet:(ms 4) ~core:0;
      Task.make ~id:5 ~name:"t5" ~period:(ms 40) ~wcet:(ms 4) ~core:1;
    ]
  in
  let labels =
    [
      Label.make ~id:0 ~name:"l0" ~size:64 ~writer:0 ~readers:[ 1 ];
      Label.make ~id:1 ~name:"l1" ~size:128 ~writer:2 ~readers:[ 3 ];
      Label.make ~id:2 ~name:"l2" ~size:256 ~writer:4 ~readers:[ 5 ];
      Label.make ~id:3 ~name:"l3" ~size:32 ~writer:1 ~readers:[ 4 ];
    ]
  in
  App.make ~platform ~tasks ~labels

let test_groups_s0 () =
  let app = fixture () in
  let g = Groups.compute app in
  let c0 = Groups.s0 g in
  (* at s0 every edge communicates: 4 writes + 4 reads *)
  check_int "C(s0) size" 8 (Comm.Set.cardinal c0);
  check_bool "contains W(t0,l0)" true
    (Comm.Set.mem (Comm.write ~task:0 ~label:0) c0);
  check_bool "contains R(l3,t4)" true
    (Comm.Set.mem (Comm.read ~task:4 ~label:3) c0)

let test_groups_subsets () =
  let app = fixture () in
  let g = Groups.compute app in
  check_bool "C(t) subset of C(s0) for all t" true (Groups.check_s0_superset g)

let test_groups_at_10ms () =
  let app = fixture () in
  let g = Groups.compute app in
  (* at t = 10ms only the 10ms pair (t0 -> t1) and the 10/40 edge
     (t1 -> t4) can require communications. t1->t4: writer 10ms,
     consumer 40ms: writes needed at last-before-reads: reads at 0,40,...;
     necessary writes at 0 and 30 (floor(40/10)*10=40==0 mod 40; v=1:
     floor(1*40/10)*10 = 40 == 0... careful) *)
  let c10 = Groups.comms_at g (ms 10) in
  check_bool "W(t0,l0) at 10ms" true
    (Comm.Set.mem (Comm.write ~task:0 ~label:0) c10);
  check_bool "R(l0,t1) at 10ms" true
    (Comm.Set.mem (Comm.read ~task:1 ~label:0) c10);
  (* t2 (20ms) does not communicate at 10ms *)
  check_bool "no W(t2,l1)" false
    (Comm.Set.mem (Comm.write ~task:2 ~label:1) c10)

let test_groups_g_write_read () =
  let app = fixture () in
  let g = Groups.compute app in
  let gw = Groups.g_write g ~time:Time.zero ~task:1 in
  let gr = Groups.g_read g ~time:Time.zero ~task:1 in
  check_int "t1 writes l3" 1 (Comm.Set.cardinal gw);
  check_int "t1 reads l0" 1 (Comm.Set.cardinal gr);
  check_bool "write is l3" true (Comm.Set.mem (Comm.write ~task:1 ~label:3) gw);
  check_bool "read is l0" true (Comm.Set.mem (Comm.read ~task:1 ~label:0) gr)

let test_groups_instants () =
  let app = fixture () in
  let g = Groups.compute app in
  let inst = Groups.instants g in
  (* hyperperiod is 40ms; the fastest pair communicates every 10ms *)
  check_bool "instants within hyperperiod" true
    (List.for_all (fun t -> t >= 0 && t < ms 40) inst);
  check_bool "s0 included" true (List.mem 0 inst);
  check_bool "10ms included" true (List.mem (ms 10) inst)

let test_groups_patterns () =
  let app = fixture () in
  let g = Groups.compute app in
  let pats = Groups.patterns g in
  check_bool "at least 2 distinct patterns" true (List.length pats >= 2);
  (* first pattern is C(s0) by construction *)
  (match pats with
   | p :: _ ->
     check_bool "first pattern is s0" true
       (Comm.Set.equal p.Groups.comms (Groups.s0 g));
     check_bool "s0 occurs at 0" true (List.mem 0 p.Groups.occurrences)
   | [] -> Alcotest.fail "no patterns");
  (* every pattern's min gap is positive and at most the hyperperiod *)
  List.iter
    (fun p ->
      check_bool "gap positive" true (p.Groups.min_gap > 0);
      check_bool "gap within hyperperiod" true (p.Groups.min_gap <= ms 40))
    pats

(* a task whose only reader shares its core produces no LET communications *)
let test_groups_intra_core_only () =
  let platform = Platform.make ~n_cores:2 () in
  let tasks =
    [
      Task.make ~id:0 ~name:"a" ~period:(ms 10) ~wcet:(ms 1) ~core:0;
      Task.make ~id:1 ~name:"b" ~period:(ms 10) ~wcet:(ms 1) ~core:0;
    ]
  in
  let labels = [ Label.make ~id:0 ~name:"l" ~size:8 ~writer:0 ~readers:[ 1 ] ] in
  let app = App.make ~platform ~tasks ~labels in
  let g = Groups.compute app in
  check_int "no instants" 0 (List.length (Groups.instants g));
  check_int "empty C(s0)" 0 (Comm.Set.cardinal (Groups.s0 g))

(* ------------------------------------------------------------------ *)
(* Communication records                                               *)
(* ------------------------------------------------------------------ *)

let test_comm_memories () =
  let app = fixture () in
  (* W(t0, l0): core 0's scratchpad -> global *)
  let w = Comm.write ~task:0 ~label:0 in
  check_bool "write src" true
    (Platform.equal_memory (Comm.src_memory app w) (Platform.Local 0));
  check_bool "write dst" true
    (Platform.equal_memory (Comm.dst_memory app w) Platform.Global);
  check_bool "write direction" true (Comm.direction w = Comm.To_global);
  (* R(l0, t1): global -> core 1's scratchpad *)
  let r = Comm.read ~task:1 ~label:0 in
  check_bool "read src" true
    (Platform.equal_memory (Comm.src_memory app r) Platform.Global);
  check_bool "read dst" true
    (Platform.equal_memory (Comm.dst_memory app r) (Platform.Local 1));
  check_int "write size" 64 (Comm.size app w);
  (* classes: same core, opposite directions differ *)
  check_bool "classes differ" true (Comm.cls app w <> Comm.cls app r);
  (* writes order before reads *)
  check_bool "write < read" true (Comm.compare w r < 0)

let test_comms_at_periodicity () =
  let app = fixture () in
  let g = Groups.compute app in
  let h = App.hyperperiod app in
  List.iter
    (fun t ->
      check_bool
        (Fmt.str "C(%a) repeats at t+H" Time.pp t)
        true
        (Comm.Set.equal (Groups.comms_at g t) (Groups.comms_at g Time.(t + h))))
    (Groups.instants g)

(* [Groups] stores C(t) once per instant. What it answers must equal C(t)
   folded from its edges at every instant, at later hyperperiods and at
   random times, and its patterns must partition the instants by equal
   C(t), in first-occurrence order, each with the tightest cyclic gap. *)
let groups_consistent ~st app =
  let g = Groups.compute app in
  let h = App.hyperperiod app in
  let folded t =
    List.fold_left
      (fun acc (e : Groups.edge) ->
        let phase = t mod e.Groups.pair_period in
        let add mk acc =
          List.fold_left (fun acc (l : Label.t) -> Comm.Set.add (mk l.Label.id) acc)
            acc e.Groups.labels
        in
        let acc =
          if List.mem phase e.Groups.w_set then
            add (fun label -> Comm.write ~task:e.Groups.producer ~label) acc
          else acc
        in
        if List.mem phase e.Groups.r_set then
          add (fun label -> Comm.read ~task:e.Groups.consumer ~label) acc
        else acc)
      Comm.Set.empty (Groups.edges g)
  in
  let agrees t = Comm.Set.equal (Groups.comms_at g t) (folded t) in
  let instants = Groups.instants g in
  let patterns = Groups.patterns g in
  let gap =
    let arr = Array.of_list instants in
    let n = Array.length arr in
    fun t ->
      let i = ref 0 in
      while arr.(!i) <> t do incr i done;
      if !i = n - 1 then h - t + arr.(0) else arr.(!i + 1) - t
  in
  let occurrences = List.concat_map (fun p -> p.Groups.occurrences) patterns in
  List.for_all
    (fun t ->
      agrees t && agrees (t + h) && agrees (t + (2 * h))
      && not (Comm.Set.is_empty (Groups.comms_at g t)))
    instants
  && List.for_all agrees (List.init 50 (fun _ -> Random.State.full_int st (3 * h)))
  && List.sort compare occurrences = instants
  && List.for_all
       (fun (p : Groups.pattern) ->
         List.for_all
           (fun t -> Comm.Set.equal p.Groups.comms (folded t))
           p.Groups.occurrences
         && p.Groups.min_gap
            = List.fold_left (fun m t -> min m (gap t)) max_int p.Groups.occurrences)
       patterns
  && List.length (List.sort_uniq Comm.Set.compare
                    (List.map (fun p -> p.Groups.comms) patterns))
     = List.length patterns
  && List.map (fun p -> List.hd p.Groups.occurrences) patterns
     = List.sort compare (List.map (fun p -> List.hd p.Groups.occurrences) patterns)

let prop_groups_store_comms =
  QCheck.Test.make ~name:"stored C(t) equals C(t) folded from the edges"
    ~count:40
    QCheck.(pair (int_range 0 100_000) bool)
    (fun (seed, small) ->
      let config =
        if small then Workload.Generator.small_config
        else Workload.Generator.default_config
      in
      groups_consistent ~st:(Random.State.make [| seed |])
        (Workload.Generator.random ~seed ~config ()))

let test_groups_waters_consistent () =
  check_bool "WATERS: stored C(t) and patterns" true
    (groups_consistent ~st:(Random.State.make [| 2019 |])
       (Workload.Waters2019.make ()))

let test_pattern_gap_hand_checked () =
  (* two tasks, both 10ms, single flow: instants every 10ms, so every
     pattern's min gap is exactly 10ms *)
  let platform = Platform.make ~n_cores:2 () in
  let tasks =
    [
      Task.make ~id:0 ~name:"w" ~period:(ms 10) ~wcet:(ms 1) ~core:0;
      Task.make ~id:1 ~name:"r" ~period:(ms 10) ~wcet:(ms 1) ~core:1;
    ]
  in
  let labels = [ Label.make ~id:0 ~name:"l" ~size:8 ~writer:0 ~readers:[ 1 ] ] in
  let app = App.make ~platform ~tasks ~labels in
  let g = Groups.compute app in
  (match Groups.patterns g with
   | [ p ] ->
     check_int "single pattern gap" (ms 10) p.Groups.min_gap;
     check_int "one occurrence" 1 (List.length p.Groups.occurrences)
   | ps -> Alcotest.fail (Fmt.str "expected 1 pattern, got %d" (List.length ps)))

(* ------------------------------------------------------------------ *)
(* Giotto ordering                                                     *)
(* ------------------------------------------------------------------ *)

let test_giotto_order () =
  let app = fixture () in
  let g = Groups.compute app in
  let ordered = Giotto.order app (Groups.s0 g) in
  check_int "all comms" 8 (List.length ordered);
  (* all writes strictly before all reads *)
  let kinds = List.map (fun c -> c.Comm.kind) ordered in
  let rec writes_then_reads seen_read = function
    | [] -> true
    | Comm.Write :: _ when seen_read -> false
    | Comm.Write :: rest -> writes_then_reads false rest
    | Comm.Read :: rest -> writes_then_reads true rest
  in
  check_bool "writes before reads" true (writes_then_reads false kinds)

let test_giotto_singletons () =
  let app = fixture () in
  let g = Groups.compute app in
  let plan = Giotto.singleton_transfers app (Groups.s0 g) in
  check_int "one transfer per comm" 8 (List.length plan);
  check_bool "all singleton" true (List.for_all (fun t -> List.length t = 1) plan)

let test_giotto_per_core () =
  let app = fixture () in
  let g = Groups.compute app in
  let seqs = Giotto.per_core_sequences app (Groups.s0 g) in
  check_int "one sequence per core" 2 (List.length seqs);
  let total = List.fold_left (fun a s -> a + List.length s) 0 seqs in
  check_int "cover all comms" 8 total;
  List.iteri
    (fun k seq ->
      check_bool "comms touch own core" true
        (List.for_all (fun c -> Comm.local_core app c = k) seq))
    seqs

(* ------------------------------------------------------------------ *)
(* Properties 1-3                                                      *)
(* ------------------------------------------------------------------ *)

let is_ok = function Ok () -> true | Error _ -> false

let test_properties_giotto_plan_valid () =
  let app = fixture () in
  let g = Groups.compute app in
  let c0 = Groups.s0 g in
  let plan = Giotto.singleton_transfers app c0 in
  check_bool "well formed" true (is_ok (Properties.well_formed ~expected:c0 plan));
  check_bool "single class" true (is_ok (Properties.single_class app plan));
  check_bool "property 1" true (is_ok (Properties.property1 plan));
  check_bool "property 2" true (is_ok (Properties.property2 plan))

let test_property1_violation () =
  (* read of task 1 before its write *)
  let plan = [ [ Comm.read ~task:1 ~label:0 ]; [ Comm.write ~task:1 ~label:3 ] ] in
  check_bool "violated" false (is_ok (Properties.property1 plan))

let test_property1_same_transfer_index () =
  (* write and read of the same task in the same position index across two
     groups is still a violation: strict order required *)
  let plan = [ [ Comm.write ~task:1 ~label:3; Comm.read ~task:1 ~label:0 ] ] in
  check_bool "same transfer violates" false (is_ok (Properties.property1 plan))

let test_property2_violation () =
  let plan = [ [ Comm.read ~task:1 ~label:0 ]; [ Comm.write ~task:0 ~label:0 ] ] in
  check_bool "violated" false (is_ok (Properties.property2 plan))

let test_property2_cross_instant_ok () =
  (* a read whose write is not part of this instant is fine (the write
     happened at an earlier instant) *)
  let plan = [ [ Comm.read ~task:1 ~label:0 ] ] in
  check_bool "ok" true (is_ok (Properties.property2 plan))

let test_well_formed_violations () =
  let app = fixture () in
  let g = Groups.compute app in
  let c0 = Groups.s0 g in
  (* missing comms *)
  check_bool "missing detected" false
    (is_ok (Properties.well_formed ~expected:c0 [ [ Comm.write ~task:0 ~label:0 ] ]));
  (* duplicates *)
  let dup = [ [ Comm.write ~task:0 ~label:0 ]; [ Comm.write ~task:0 ~label:0 ] ] in
  check_bool "duplicate detected" false (is_ok (Properties.well_formed ~expected:c0 dup))

let test_single_class_violation () =
  let app = fixture () in
  (* W(t0,l0) is core0 -> global; R(l0,t1) is global -> core1 *)
  let plan = [ [ Comm.write ~task:0 ~label:0; Comm.read ~task:1 ~label:0 ] ] in
  check_bool "mixed class detected" false (is_ok (Properties.single_class app plan))

let test_duration_and_property3 () =
  let app = fixture () in
  let plan = [ [ Comm.write ~task:0 ~label:0 ]; [ Comm.write ~task:2 ~label:1 ] ] in
  let p = App.platform app in
  let expected =
    Time.(
      (2 * Platform.lambda_o p)
      + Platform.dma_copy_time p 64
      + Platform.dma_copy_time p 128)
  in
  check_int "duration" expected (Properties.duration app plan);
  check_bool "property 3 holds with slack" true
    (is_ok (Properties.property3 app ~gap:(ms 10) plan));
  check_bool "property 3 violated when gap too small" false
    (is_ok (Properties.property3 app ~gap:(Time.of_us 10) plan))

(* ------------------------------------------------------------------ *)
(* Property-based tests                                                *)
(* ------------------------------------------------------------------ *)

(* For random period pairs, the necessary-instant sets respect their
   defining semantics. *)
let prop_eta_writes_serve_all_reads =
  QCheck.Test.make ~name:"every read is served by a necessary write" ~count:200
    QCheck.(pair (int_range 1 40) (int_range 1 40))
    (fun (twu, tcu) ->
      let tw = ms twu and tc = ms tcu in
      let h = Time.lcm tw tc in
      let writes = Eta.write_instants ~tw ~tc in
      (* for every read instant v*tc in [0, 2h), the last write at/before it
         must be in the necessary set (mod h) *)
      let ok = ref true in
      for v = 0 to (2 * h / tc) - 1 do
        let r = v * tc in
        let last_write = r / tw * tw in
        if not (List.mem (last_write mod h) writes) then ok := false
      done;
      !ok)

let prop_eta_reads_cover_all_writes =
  QCheck.Test.make ~name:"every write is consumed by a necessary read" ~count:200
    QCheck.(pair (int_range 1 40) (int_range 1 40))
    (fun (twu, tcu) ->
      let tw = ms twu and tc = ms tcu in
      let h = Time.lcm tw tc in
      let reads = Eta.read_instants ~tw ~tc in
      let ok = ref true in
      for v = 0 to (h / tw) - 1 do
        let w = v * tw in
        let first_read = (w + tc - 1) / tc * tc in
        if not (List.mem (first_read mod h) reads) then ok := false
      done;
      !ok)

(* failure injection: structured corruptions of a valid plan must be
   caught by the corresponding checker *)
let prop_checkers_catch_corruption =
  QCheck.Test.make ~name:"property checkers catch injected corruption"
    ~count:100
    QCheck.(pair (int_range 0 1000) (int_range 0 2))
    (fun (seed, kind) ->
      let st = Random.State.make [| seed |] in
      let app = fixture () in
      let g = Groups.compute app in
      let c0 = Groups.s0 g in
      let plan = Giotto.singleton_transfers app c0 in
      let arr = Array.of_list plan in
      let n = Array.length arr in
      match kind with
      | 0 ->
        (* drop a random transfer: well-formedness must fail *)
        let k = Random.State.int st n in
        let mutilated =
          Array.to_list (Array.of_list plan) |> List.filteri (fun i _ -> i <> k)
        in
        Result.is_error (Properties.well_formed ~expected:c0 mutilated)
      | 1 ->
        (* duplicate a random transfer: well-formedness must fail *)
        let k = Random.State.int st n in
        Result.is_error
          (Properties.well_formed ~expected:c0 (arr.(k) :: plan))
      | _ ->
        (* move a random read before every write: Property 1 or 2 fails
           whenever the read's counterpart write is in the plan *)
        let reads =
          List.filter
            (fun grp -> List.exists (fun c -> c.Comm.kind = Comm.Read) grp)
            plan
        in
        (match reads with
         | [] -> true
         | _ ->
           let k = Random.State.int st (List.length reads) in
           let victim = List.nth reads k in
           let rest = List.filter (fun grp -> grp != victim) plan in
           let corrupted = victim :: rest in
           Result.is_error (Properties.property1 corrupted)
           || Result.is_error (Properties.property2 corrupted)))

let prop_giotto_satisfies_properties =
  QCheck.Test.make ~name:"giotto singleton plans satisfy Properties 1-2"
    ~count:50
    QCheck.(int_range 0 1000)
    (fun seed ->
      (* random small app: 4 tasks on 2 cores, random edges *)
      let st = Random.State.make [| seed |] in
      let periods = [| 10; 20; 40; 80 |] in
      let tasks =
        List.init 4 (fun i ->
            Task.make ~id:i ~name:(Printf.sprintf "t%d" i)
              ~period:(ms periods.(Random.State.int st 4))
              ~wcet:Time.zero ~core:(i mod 2))
      in
      let labels = ref [] in
      let next = ref 0 in
      for w = 0 to 3 do
        for r = 0 to 3 do
          if w <> r && w mod 2 <> r mod 2 && Random.State.bool st then begin
            labels :=
              Label.make ~id:!next ~name:(Printf.sprintf "l%d" !next)
                ~size:(8 * (1 + Random.State.int st 16))
                ~writer:w ~readers:[ r ]
              :: !labels;
            incr next
          end
        done
      done;
      let app =
        App.make
          ~platform:(Platform.make ~n_cores:2 ())
          ~tasks
          ~labels:(List.rev !labels)
      in
      let g = Groups.compute app in
      Groups.check_s0_superset g
      && List.for_all
           (fun (p : Groups.pattern) ->
             let plan = Giotto.singleton_transfers app p.Groups.comms in
             is_ok (Properties.well_formed ~expected:p.Groups.comms plan)
             && is_ok (Properties.single_class app plan)
             && is_ok (Properties.property1 plan)
             && is_ok (Properties.property2 plan))
           (Groups.patterns g))

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_eta_writes_serve_all_reads;
        prop_eta_reads_cover_all_writes;
        prop_giotto_satisfies_properties;
        prop_checkers_catch_corruption;
      ]
  in
  Alcotest.run "let_sem"
    [
      ( "eta",
        [
          Alcotest.test_case "equal periods" `Quick test_eta_equal_periods;
          Alcotest.test_case "oversampled writer" `Quick test_eta_oversampled_writer;
          Alcotest.test_case "oversampled reader" `Quick test_eta_oversampled_reader;
          Alcotest.test_case "non-harmonic" `Quick test_eta_non_harmonic;
          Alcotest.test_case "non-harmonic symmetric" `Quick test_eta_non_harmonic_sym;
          Alcotest.test_case "membership" `Quick test_eta_membership;
          Alcotest.test_case "invalid periods" `Quick test_eta_invalid;
        ] );
      ( "groups",
        [
          Alcotest.test_case "C(s0)" `Quick test_groups_s0;
          Alcotest.test_case "C(t) subset of C(s0)" `Quick test_groups_subsets;
          Alcotest.test_case "C(10ms)" `Quick test_groups_at_10ms;
          Alcotest.test_case "G^W / G^R" `Quick test_groups_g_write_read;
          Alcotest.test_case "instants" `Quick test_groups_instants;
          Alcotest.test_case "patterns" `Quick test_groups_patterns;
          Alcotest.test_case "intra-core only" `Quick test_groups_intra_core_only;
        ] );
      ( "comm",
        [
          Alcotest.test_case "memories and classes" `Quick test_comm_memories;
          Alcotest.test_case "periodicity over H" `Quick test_comms_at_periodicity;
          Alcotest.test_case "WATERS stored C(t) equals the edges'" `Quick
            test_groups_waters_consistent;
          QCheck_alcotest.to_alcotest prop_groups_store_comms;
          Alcotest.test_case "pattern gap hand-checked" `Quick
            test_pattern_gap_hand_checked;
        ] );
      ( "giotto",
        [
          Alcotest.test_case "order" `Quick test_giotto_order;
          Alcotest.test_case "singleton transfers" `Quick test_giotto_singletons;
          Alcotest.test_case "per-core sequences" `Quick test_giotto_per_core;
        ] );
      ( "properties",
        [
          Alcotest.test_case "giotto plan valid" `Quick test_properties_giotto_plan_valid;
          Alcotest.test_case "property 1 violation" `Quick test_property1_violation;
          Alcotest.test_case "property 1 same transfer" `Quick
            test_property1_same_transfer_index;
          Alcotest.test_case "property 2 violation" `Quick test_property2_violation;
          Alcotest.test_case "property 2 cross-instant" `Quick
            test_property2_cross_instant_ok;
          Alcotest.test_case "well-formedness" `Quick test_well_formed_violations;
          Alcotest.test_case "single class" `Quick test_single_class_violation;
          Alcotest.test_case "duration and property 3" `Quick
            test_duration_and_property3;
        ] );
      ("qcheck", qsuite);
    ]
