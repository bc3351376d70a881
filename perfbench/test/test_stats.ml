(* The benchmark's arithmetic: the tail-percentile rule, open-loop
   latency, the max-rate backlog rule and span self time. *)

let close = Alcotest.float 1e-9

let ints n = List.init n (fun i -> float_of_int (i + 1))

let tail_rule () =
  Alcotest.(check (option (pair close close)))
    "19 samples: no percentile has ten beyond it" None (Stats.tail (ints 19));
  Alcotest.(check (option (pair close close)))
    "20 samples: the median" (Some (50.0, 10.0)) (Stats.tail (ints 20));
  Alcotest.(check (option (pair close close)))
    "100 samples: p90" (Some (90.0, 90.0)) (Stats.tail (ints 100));
  Alcotest.(check (option (pair close close)))
    "1000 samples: p99" (Some (99.0, 990.0)) (Stats.tail (ints 1000));
  Alcotest.(check (option (pair close close)))
    "order does not matter" (Some (90.0, 90.0))
    (Stats.tail (List.rev (ints 100)));
  Alcotest.check close "too few samples: the maximum" 7.0
    (Stats.tail_or_max [ 3.0; 7.0; 1.0 ]);
  Alcotest.check close "median of an even count" 2.5
    (Stats.median [ 4.0; 1.0; 3.0; 2.0 ])

let latency_from_schedule () =
  (* due 1.0 s after t0, sent 0.3 s late by a stalled generator,
     answered 0.2 s after sending: the stall counts *)
  let t0 = 100.0 in
  Alcotest.check close "latency" 0.5
    (Stats.latency ~t0 ~scheduled:1.0 ~received:101.5);
  Alcotest.check close "lateness" 0.3
    (Stats.lateness ~t0 ~scheduled:1.0 ~sent:101.3)

let phase ~rate ~service ~ok =
  let n = Array.length service in
  let due = Array.init n (fun i -> float_of_int i /. rate) in
  (* one server, first come first served *)
  let free = ref 0.0 in
  let done_at =
    Array.mapi
      (fun i s ->
        let start = Float.max !free due.(i) in
        free := start +. s;
        !free)
      service
  in
  { Stats.rate; due; done_at; ok }

let backlog_rule () =
  let steady = phase ~rate:1.0 ~service:(Array.make 30 0.5) ~ok:(Array.make 30 true) in
  Alcotest.(check (array int)) "steady backlog" (Array.make 30 1)
    (Stats.backlog ~due:steady.Stats.due ~done_at:steady.Stats.done_at);
  Alcotest.(check bool) "steady: no growth" false
    (Stats.backlog_growing ~due:steady.Stats.due ~done_at:steady.Stats.done_at);
  let overloaded = phase ~rate:4.0 ~service:(Array.make 30 0.5) ~ok:(Array.make 30 true) in
  Alcotest.(check bool) "overloaded: grows" true
    (Stats.backlog_growing ~due:overloaded.Stats.due ~done_at:overloaded.Stats.done_at);
  (* failed requests count as infinitely late: the p50 tail of 30
     requests tolerates 14 of them, not 16 *)
  let failing k = { steady with Stats.ok = Array.init 30 (fun i -> i >= k) } in
  Alcotest.(check bool) "14 failed of 30" true
    (Stats.phase_meets ~limit:10.0 (failing 14));
  Alcotest.(check bool) "16 failed of 30" false
    (Stats.phase_meets ~limit:10.0 (failing 16));
  Alcotest.check close "highest passing rate" 1.0
    (Stats.max_rate ~limit:2.0 [ steady; overloaded ]);
  Alcotest.check close "slow but steady misses a tight limit" 0.0
    (Stats.max_rate ~limit:0.1 [ steady ])

let span id parent start stop = { Stats.id; parent; start; stop }

let self_time () =
  let parent = span 0 None 0.0 10.0 in
  let spans =
    [ parent; span 1 (Some 0) 1.0 3.0; span 2 (Some 0) 2.0 5.0;
      span 3 (Some 0) 8.0 12.0; span 4 (Some 1) 1.5 2.5 ]
  in
  (* children cover [1,5] and [8,10]; the grandchild is inside its
     parent and does not count twice *)
  Alcotest.check close "parent" 4.0 (Stats.self_time spans parent);
  Alcotest.check close "child with a grandchild" 1.0
    (Stats.self_time spans (span 1 (Some 0) 1.0 3.0));
  Alcotest.check close "leaf" 3.0 (Stats.self_time spans (span 2 (Some 0) 2.0 5.0))

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "tail percentile rule" `Quick tail_rule;
          Alcotest.test_case "latency from the scheduled send" `Quick
            latency_from_schedule;
          Alcotest.test_case "max rate backlog rule" `Quick backlog_rule;
          Alcotest.test_case "self time" `Quick self_time;
        ] );
    ]
