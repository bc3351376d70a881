(* Tests for the lib/obs observability spine: JSONL schema validity,
   non-finite float handling, metrics aggregation, the strict trace
   validator, and the end-to-end properties the CI gate relies on —
   every traced solve emits a parseable trace, and jobs=1 traces are
   deterministic modulo timestamps. *)

open Rt_model
open Let_sem

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let ms = Time.of_ms

let fixture () =
  let platform = Platform.make ~n_cores:2 () in
  let tasks =
    [
      Task.make ~id:0 ~name:"t0" ~period:(ms 10) ~wcet:(ms 1) ~core:0;
      Task.make ~id:1 ~name:"t1" ~period:(ms 20) ~wcet:(ms 2) ~core:1;
      Task.make ~id:2 ~name:"t2" ~period:(ms 20) ~wcet:(ms 2) ~core:0;
    ]
  in
  let labels =
    [
      Label.make ~id:0 ~name:"a" ~size:256 ~writer:0 ~readers:[ 1 ];
      Label.make ~id:1 ~name:"b" ~size:128 ~writer:0 ~readers:[ 1 ];
      Label.make ~id:2 ~name:"c" ~size:512 ~writer:1 ~readers:[ 2 ];
    ]
  in
  App.make ~platform ~tasks ~labels

let gamma_for app alpha =
  match Rt_analysis.Sensitivity.gammas app ~alpha with
  | Some s -> s.Rt_analysis.Sensitivity.gamma
  | None -> Alcotest.fail "fixture unschedulable"

let with_temp f =
  let path = Filename.temp_file "obs_test" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let write_lines path lines =
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Emission                                                            *)
(* ------------------------------------------------------------------ *)

let test_disabled_is_noop () =
  check_bool "disabled by default" false (Obs.enabled ());
  (* all emitters are inert and [span] is transparent *)
  Obs.point ~cat:"x" "p" [];
  Obs.counter ~cat:"x" "c" 1;
  check_int "span passes through" 41 (Obs.span ~cat:"x" "s" (fun () -> 41))

let test_trace_file_schema () =
  with_temp @@ fun path ->
  Obs.with_trace ~file:path (fun () ->
      Obs.point ~cat:"t" "start" [ ("k", Obs.Int 1); ("s", Obs.Str "a\"b") ];
      Obs.counter ~cat:"t" "gauge" 7;
      ignore
        (Obs.span ~cat:"t" "work"
           ~fields:[ ("f", Obs.Float 0.5); ("b", Obs.Bool true) ]
           (fun () -> 0));
      (* non-finite floats must never leak NaN/Infinity tokens *)
      Obs.point ~cat:"t" "bad"
        [ ("nan", Obs.Float Float.nan); ("inf", Obs.Float Float.infinity) ]);
  (match Obs.Check.trace_file path with
   | Ok n -> check_int "five events" 5 n
   | Error e -> Alcotest.fail e);
  let lines = read_lines path in
  List.iter
    (fun l ->
      check_bool "line is an object" true
        (String.length l > 1 && l.[0] = '{' && l.[String.length l - 1] = '}');
      check_bool "no NaN token" false (contains l "NaN");
      check_bool "no Infinity token" false (contains l "Infinity"))
    lines;
  check_bool "non-finite serialized as null" true
    (List.exists (fun l -> contains l "\"nan\":null") lines)

let test_metrics_aggregation () =
  with_temp @@ fun path ->
  Obs.with_trace ~file:path (fun () ->
      ignore (Obs.span ~cat:"m" "phase" (fun () -> ()));
      Obs.point ~cat:"m" "tick" [];
      Obs.point ~cat:"m" "tick" [];
      Obs.counter ~cat:"m" "depth" 3);
  let row name =
    match List.find_opt (fun r -> r.Obs.name = name) (Obs.metrics ()) with
    | Some r -> r
    | None -> Alcotest.fail ("missing metrics row " ^ name)
  in
  (* a span is one event (begin/end pair), not two *)
  check_int "span counted once" 1 (row "phase").Obs.count;
  check_bool "span accumulates duration" true ((row "phase").Obs.total_s >= 0.0);
  check_int "points counted" 2 (row "tick").Obs.count;
  check_int "counter keeps last value" 3 (row "depth").Obs.last

(* ------------------------------------------------------------------ *)
(* Validator                                                           *)
(* ------------------------------------------------------------------ *)

let test_check_rejects_bad_traces () =
  let bad lines expect =
    with_temp @@ fun path ->
    write_lines path lines;
    match Obs.Check.trace_file path with
    | Ok _ -> Alcotest.fail ("accepted " ^ expect)
    | Error _ -> ()
  in
  bad [ {|{"ts":0.1,"dom":0,"kind":"point","cat":"c","name":"n","args":{"v":NaN}}|} ]
    "a NaN token";
  bad [ {|{"ts":0.1,"dom":0,"kind":"point","cat":"c"}|} ] "a missing name field";
  bad [ {|{"ts":0.1,"dom":0,"kind":"warp","cat":"c","name":"n"}|} ]
    "an unknown kind";
  bad
    [
      {|{"ts":0.2,"dom":0,"kind":"point","cat":"c","name":"n"}|};
      {|{"ts":0.1,"dom":0,"kind":"point","cat":"c","name":"n"}|};
    ]
    "non-monotone timestamps";
  bad [ "not json at all" ] "garbage";
  (* interleaved domains are fine: monotonicity is per domain *)
  with_temp @@ fun path ->
  write_lines path
    [
      {|{"ts":0.2,"dom":0,"kind":"point","cat":"c","name":"n"}|};
      {|{"ts":0.1,"dom":1,"kind":"point","cat":"c","name":"n"}|};
      {|{"ts":0.3,"dom":0,"kind":"end","cat":"c","name":"n","dur":0.1}|};
    ];
  match Obs.Check.trace_file path with
  | Ok n -> check_int "per-domain monotone accepted" 3 n
  | Error e -> Alcotest.fail e

let test_check_json_file () =
  with_temp @@ fun path ->
  write_lines path [ {|{"time_s": 0.5, "sections": [1, 2, 3]}|} ];
  (match Obs.Check.json_file path with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  write_lines path [ {|{"time_s": Infinity}|} ];
  match Obs.Check.json_file path with
  | Ok () -> Alcotest.fail "accepted an Infinity token"
  | Error _ -> ()

(* Every byte string survives the shared escaper and the strict parser:
   control bytes travel as \u00XX escapes and must decode back to the
   byte, bytes >= 0x80 pass through raw. The same bytes also survive as
   a trace line's cat, name and field, through the sink and the trace
   validator. *)
let prop_string_round_trip =
  QCheck.Test.make ~name:"JSON string round trip" ~count:500 QCheck.string
    (fun s ->
      Resilience.Json.parse (Resilience.Json.escape s)
      = Ok (Resilience.Json.S s)
      &&
      with_temp @@ fun path ->
      Obs.with_trace ~file:path (fun () -> Obs.point ~cat:s s [ (s, Obs.Str s) ]);
      Obs.Check.trace_file path = Ok 1
      &&
      match read_lines path with
      | [ line ] -> (
        match Obs.Check.parse_json line with
        | Ok (Obs.Check.O ms) ->
          List.assoc_opt "cat" ms = Some (Obs.Check.S s)
          && List.assoc_opt "name" ms = Some (Obs.Check.S s)
          && List.assoc_opt "args" ms = Some (Obs.Check.O [ (s, Obs.Check.S s) ])
        | _ -> false)
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* End to end: traced solves                                           *)
(* ------------------------------------------------------------------ *)

(* OBJ-DEL searches from its MIP start (NO-OBJ would prove the start
   at 0 nodes); the node limit, not the clock, ends the search. *)
let traced_solve path =
  let app = fixture () in
  let groups = Groups.compute app in
  let gamma = gamma_for app 0.3 in
  Obs.with_trace ~file:path (fun () ->
      ignore
        (Letdma.Solve.solve ~node_limit:20 ~time_limit_s:20.0
           Letdma.Formulation.Min_delay_ratio app groups ~gamma))

(* Every traced solve yields a valid JSONL trace with solver events —
   the property ci.sh enforces on the smoke solve. *)
let test_traced_solve_valid () =
  with_temp @@ fun path ->
  traced_solve path;
  (match Obs.Check.trace_file path with
   | Ok n -> check_bool "trace non-empty" true (n > 0)
   | Error e -> Alcotest.fail e);
  let lines = read_lines path in
  check_bool "has solver round events" true
    (List.exists (fun l -> contains l {|"cat":"solver"|}) lines);
  check_bool "has node events" true
    (List.exists (fun l -> contains l {|"name":"node"|}) lines)

(* strip the wall-clock-valued keys so runs are comparable *)
let strip_times line =
  let buf = Buffer.create (String.length line) in
  let n = String.length line in
  (* ts/dur values are plain numbers: skip to the ',' or '}' ending them *)
  let rec skip_value i =
    if i >= n || line.[i] = ',' || line.[i] = '}' then i else skip_value (i + 1)
  in
  let keys = [ {|"ts":|}; {|"dur":|} ] in
  let rec go i =
    if i >= n then Buffer.contents buf
    else
      match
        List.find_opt
          (fun k -> i + String.length k <= n && String.sub line i (String.length k) = k)
          keys
      with
      | Some k ->
        Buffer.add_string buf k;
        Buffer.add_char buf '_';
        go (skip_value (i + String.length k))
      | None ->
        Buffer.add_char buf line.[i];
        go (i + 1)
  in
  go 0

(* jobs=1 traces are byte-stable across runs once timestamps are
   masked: same events, same order, same payloads (satellite of the
   deterministic-constraint-order fix). *)
let test_jobs1_trace_deterministic () =
  with_temp @@ fun p1 ->
  with_temp @@ fun p2 ->
  traced_solve p1;
  traced_solve p2;
  let a = List.map strip_times (read_lines p1) in
  let b = List.map strip_times (read_lines p2) in
  Alcotest.(check (list string)) "identical event streams" a b

(* basis-pool lifecycle events ride the sampled node stream: a warm
   best-first solve with a one-basis pool must leave warm_hit and evict
   points in the trace, and the trace must still validate. *)
let test_basis_events_traced () =
  with_temp @@ fun path ->
  let module P = Milp.Problem in
  let module L = Milp.Linexpr in
  (* knapsack-flavoured MILP whose LP relaxation is fractional, so the
     search branches and children restore parent bases (same shape as
     test_milp's pinned warm-start trajectory) *)
  let st = Random.State.make [| 42 |] in
  let n = 4 + Random.State.int st 7 in
  let p = P.create () in
  let xs = Array.init n (fun i -> P.binary ~name:(Printf.sprintf "w%d" i) p) in
  let y = P.integer ~name:"wy" ~lo:0.0 ~hi:6.0 p in
  for r = 0 to 2 do
    let expr =
      Array.fold_left
        (fun acc x -> L.add_term acc (float_of_int (1 + Random.State.int st 9)) x)
        (L.var ~coeff:2.0 y) xs
    in
    ignore
      (P.add_constr ~name:(Printf.sprintf "wr%d" r) p expr P.Le
         (float_of_int (8 + Random.State.int st (3 * n))))
  done;
  ignore (P.add_constr p (L.add (L.var xs.(0)) (L.var y)) P.Ge 1.0);
  P.set_objective p P.Maximize
    (Array.fold_left
       (fun acc x -> L.add_term acc (float_of_int (1 + Random.State.int st 9)) x)
       (L.var ~coeff:3.0 y) xs);
  Obs.with_trace ~file:path (fun () ->
      let hooks = Obs.Solver_hooks.wrap Milp.Branch_bound.no_hooks in
      ignore (Milp.Branch_bound.solve ~time_limit_s:30.0 ~basis_pool:1 ~hooks p));
  (match Obs.Check.trace_file path with
   | Ok n -> check_bool "trace non-empty" true (n > 0)
   | Error e -> Alcotest.fail e);
  let lines = read_lines path in
  check_bool "has basis events" true
    (List.exists (fun l -> contains l {|"cat":"basis"|}) lines);
  check_bool "has warm_hit points" true
    (List.exists (fun l -> contains l {|"name":"warm_hit"|}) lines);
  check_bool "has evict points" true
    (List.exists (fun l -> contains l {|"name":"evict"|}) lines)

let () =
  Alcotest.run "obs"
    [
      ( "emission",
        [
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled_is_noop;
          Alcotest.test_case "JSONL schema" `Quick test_trace_file_schema;
          Alcotest.test_case "metrics aggregation" `Quick test_metrics_aggregation;
        ] );
      ( "validator",
        [
          Alcotest.test_case "rejects bad traces" `Quick
            test_check_rejects_bad_traces;
          Alcotest.test_case "whole-file JSON" `Quick test_check_json_file;
          QCheck_alcotest.to_alcotest prop_string_round_trip;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "traced solve is valid JSONL" `Slow
            test_traced_solve_valid;
          Alcotest.test_case "jobs=1 trace deterministic" `Slow
            test_jobs1_trace_deterministic;
          Alcotest.test_case "basis events traced" `Quick
            test_basis_events_traced;
        ] );
    ]
