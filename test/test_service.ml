(* Tests for lib/service: the strict wire protocol, the QoS shedding
   table, the fingerprint-keyed LRU cache (unit + model-based QCheck),
   the batch engine (byte-identical hits, warm seeding, unknown ops,
   stats), and an end-to-end daemon session over pipes with the full
   request mix the acceptance gate demands. *)

module J = Resilience.Json
module P = Service.Protocol
module C = Service.Cache
module Q = Service.Qos
module E = Service.Engine
module D = Service.Daemon
module Pipeline = Letdma.Pipeline

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ---------- response-side helpers ---------- *)

let parse_obj line =
  match J.parse (String.trim line) with
  | Ok (J.O ms) -> ms
  | Ok _ -> Alcotest.failf "response is not an object: %s" line
  | Error m -> Alcotest.failf "unparsable response %S: %s" line m

let sfield ms k =
  try J.as_string k (J.field "response" ms k)
  with J.Invalid m -> Alcotest.failf "field %s: %s" k m

let ifield ms k =
  try J.as_int k (J.field "response" ms k)
  with J.Invalid m -> Alcotest.failf "field %s: %s" k m

let find_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.sub hay i nn = needle then Some i
    else go (i + 1)
  in
  go 0

(* The byte-stable solution fields of an ok response: everything from
   the "tier" member on. A cache hit must replay this suffix exactly. *)
let core_suffix line =
  match find_sub line "\"tier\"" with
  | Some i -> String.sub line i (String.length line - i)
  | None -> Alcotest.failf "response has no tier member: %s" line

(* ---------- protocol ---------- *)

let req_ok line =
  match P.parse_request line with
  | Ok r -> r
  | Error e -> Alcotest.failf "parse %S failed: %s" line e.P.message

let req_err line =
  match P.parse_request line with
  | Error e -> e
  | Ok _ -> Alcotest.failf "parse %S unexpectedly succeeded" line

let test_parse_defaults () =
  let r = req_ok {|{"id":"r1","op":"solve"}|} in
  check_string "id" "r1" r.P.id;
  match r.P.op with
  | P.Solve s ->
    check_bool "workload" true (s.P.workload = Workload.Waters);
    check_int "seed" 42 s.P.seed;
    check_int "labels" 1 s.P.labels_per_edge;
    check_string "objective" "NO-OBJ"
      (Letdma.Formulation.objective_name s.P.objective);
    Alcotest.(check (float 1e-9)) "alpha" 0.2 s.P.alpha;
    Alcotest.(check (float 1e-9)) "deadline" 60.0 s.P.deadline_s;
    check_string "class" "silver" (Q.klass_name s.P.klass)
  | _ -> Alcotest.fail "expected solve op"

let test_parse_full () =
  let r =
    req_ok
      {|{"id":"r2","op":"solve","workload":"small","seed":7,"labels_per_edge":2,"objective":"dmat","alpha":0.3,"deadline_s":5,"class":"gold"}|}
  in
  match r.P.op with
  | P.Solve s ->
    check_bool "workload" true (s.P.workload = Workload.Small);
    check_int "seed" 7 s.P.seed;
    check_int "labels" 2 s.P.labels_per_edge;
    check_string "objective" "OBJ-DMAT"
      (Letdma.Formulation.objective_name s.P.objective);
    check_string "class" "gold" (Q.klass_name s.P.klass)
  | _ -> Alcotest.fail "expected solve op"

let test_parse_rejects_unknown_member () =
  (* a misspelled member must fail loudly, not silently solve defaults *)
  let e = req_err {|{"id":"r3","op":"solve","objectve":"dmat"}|} in
  check_string "recovered id" "r3" e.P.err_id;
  check_bool "mentions member" true
    (find_sub e.P.message "objectve" <> None)

let test_parse_rejects_bad_values () =
  List.iter
    (fun line -> ignore (req_err line))
    [
      {|{"op":"solve"}|} (* missing id *);
      {|{"id":"","op":"solve"}|} (* empty id *);
      {|{"id":"x"}|} (* missing op *);
      {|{"id":"x","op":"nope"}|};
      {|{"id":"x","op":"solve","workload":"huge"}|};
      {|{"id":"x","op":"solve","alpha":0}|};
      {|{"id":"x","op":"solve","alpha":NaN}|} (* NaN is not JSON *);
      {|{"id":"x","op":"solve","deadline_s":-1}|};
      {|{"id":"x","op":"crash","times":0}|};
      {|{"id":"x","op":"stats","extra":1}|};
      "not json at all";
      "" (* empty line *);
    ]

(* stats is an op; crash is not, and its error keeps the id. *)
let test_parse_ops () =
  (match (req_ok {|{"id":"s","op":"stats"}|}).P.op with
  | P.Stats -> ()
  | _ -> Alcotest.fail "expected stats");
  let e = req_err {|{"id":"c","op":"crash"}|} in
  check_string "recovered id" "c" e.P.err_id;
  check_bool "names the ops" true
    (find_sub e.P.message "expected solve/stats" <> None)

let test_render_deterministic () =
  check_string "float is %.17g"
    "{\"id\":\"x\",\"status\":\"ok\",\"f\":0.10000000000000001}\n"
    (P.render ~id:"x" ~status:"ok" [ ("f", P.F 0.1) ]);
  check_string "non-finite floats become null"
    "{\"id\":\"x\",\"status\":\"ok\",\"f\":null}\n"
    (P.render ~id:"x" ~status:"ok" [ ("f", P.F Float.nan) ]);
  check_string "error line"
    "{\"id\":\"e\",\"status\":\"error\",\"error\":\"boom \\\"q\\\"\"}\n"
    (P.error_line ~id:"e" {|boom "q"|});
  (* every rendered line is itself strict JSON *)
  let line =
    P.render ~id:"y" ~status:"ok"
      [ ("i", P.I 3); ("b", P.B true); ("s", P.S "v") ]
  in
  check_bool "round-trips" true (Result.is_ok (J.parse (String.trim line)))

(* Valid request lines the fuzzer mutates. *)
let fuzz_seeds =
  [|
    {|{"id":"r1","op":"solve","workload":"small","seed":7,"objective":"dmat","alpha":0.2,"deadline_s":10,"class":"gold"}|};
    {|{"id":"r2","op":"solve","workload":"waters","labels_per_edge":2,"objective":"del","alpha":0.3,"deadline_s":0.5,"class":"bronze"}|};
    {|{"id":"caf\u00e9","op":"stats"}|};
    {|{"id":"r3","op":"solve","workload":"small","seed":5,"objective":"del","alpha":0.25,"deadline_s":1,"class":"silver"}|};
  |]

(* JSON values a mutated field may take. *)
let fuzz_values =
  [|
    "null"; "true"; "0"; "-1"; "1e308"; "-1e999"; "99999999999999999999";
    "0.5"; "\"\""; "\"\\ud800\""; "\"x\\u0000y\""; "[]"; "{}";
    "[1,{\"a\":[]}]"; "NaN"; "\"small\""; "\"no-obj\""; "\"\xff\xfe\"";
  |]

let fuzz_keys =
  [|
    "id"; "op"; "workload"; "seed"; "labels_per_edge"; "objective"; "alpha";
    "deadline_s"; "class"; "times"; "extra"; "";
  |]

(* A fuzzed line: random bytes, byte edits of a valid line (overwrite,
   delete, insert, truncate), or a valid line with one member set to
   another JSON value or added under another key. *)
let fuzz_line =
  let open QCheck.Gen in
  let byte = map Char.chr (int_bound 255) in
  let seed_line = map (Array.get fuzz_seeds) (int_bound (Array.length fuzz_seeds - 1)) in
  let pick a = map (Array.get a) (int_bound (Array.length a - 1)) in
  let edit =
    seed_line >>= fun l ->
    let n = String.length l in
    int_bound (n - 1) >>= fun i ->
    byte >>= fun c ->
    oneofl
      [
        String.mapi (fun j x -> if j = i then c else x) l;
        String.sub l 0 i ^ String.sub l (i + 1) (n - i - 1);
        String.sub l 0 i ^ String.make 1 c ^ String.sub l i (n - i);
        String.sub l 0 i;
      ]
  in
  let field =
    seed_line >>= fun l ->
    pick fuzz_keys >>= fun k ->
    pick fuzz_values >>= fun v ->
    (* the line minus its closing brace, plus one member *)
    return (Printf.sprintf "%s,\"%s\":%s}" (String.sub l 0 (String.length l - 1)) k v)
  in
  frequency
    [
      (1, string_size ~gen:byte (int_bound 64));
      (3, edit);
      (3, field);
    ]

(* [parse_request] answers [Ok] or [Error] for any line and never
   raises; the error response of each [Error] is strict JSON that
   carries the recovered id. *)
let prop_protocol_fuzz =
  QCheck.Test.make ~name:"fuzzed request lines parse or fail as JSON"
    ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S") fuzz_line)
    (fun line ->
      match P.parse_request line with
      | Ok _ -> true
      | Error e -> (
        match J.parse (String.trim (P.error_line ~id:e.P.err_id e.P.message)) with
        | Ok (J.O ms) ->
          J.as_string "id" (J.field "r" ms "id") = e.P.err_id
          && J.as_string "status" (J.field "r" ms "status") = "error"
        | Ok _ | Error _ -> false))

(* ---------- qos ---------- *)

let tier = Alcotest.testable (Fmt.of_to_string Pipeline.rung_name) ( = )

let test_qos_table () =
  let check what k ~load ~budget_s expect =
    Alcotest.check tier what expect (Q.plan k ~load ~budget_s)
  in
  (* gold never sheds *)
  check "gold idle" Q.Gold ~load:0.0 ~budget_s:100.0 Pipeline.Milp;
  check "gold overload" Q.Gold ~load:1000.0 ~budget_s:0.001 Pipeline.Milp;
  (* silver: milp until load 2, heuristic until 8, then baseline *)
  check "silver idle" Q.Silver ~load:1.0 ~budget_s:10.0 Pipeline.Milp;
  check "silver loaded" Q.Silver ~load:4.0 ~budget_s:10.0 Pipeline.Heuristic;
  check "silver swamped" Q.Silver ~load:16.0 ~budget_s:10.0 Pipeline.Baseline;
  check "silver tiny budget" Q.Silver ~load:1.0 ~budget_s:0.5
    Pipeline.Heuristic;
  check "silver no budget" Q.Silver ~load:1.0 ~budget_s:0.01 Pipeline.Baseline;
  (* bronze sheds earlier *)
  check "bronze idle" Q.Bronze ~load:0.5 ~budget_s:10.0 Pipeline.Milp;
  check "bronze loaded" Q.Bronze ~load:2.0 ~budget_s:10.0 Pipeline.Heuristic;
  check "bronze swamped" Q.Bronze ~load:8.0 ~budget_s:10.0 Pipeline.Baseline

let test_qos_names () =
  List.iter
    (fun k ->
      match Q.klass_of_string (Q.klass_name k) with
      | Some k' -> check_bool "round-trip" true (k = k')
      | None -> Alcotest.fail "klass name does not round-trip")
    [ Q.Gold; Q.Silver; Q.Bronze ];
  check_bool "unknown class" true (Q.klass_of_string "platinum" = None)

(* ---------- cache ---------- *)

let test_cache_hit_miss () =
  let c = C.create ~capacity:4 in
  check_bool "cold miss" true (C.find c "f1" = None);
  C.add c ~fingerprint:"f1" ~family:"fam" 41;
  check_bool "hit" true (C.find c "f1" = Some 41);
  (* a different fingerprint never sees another entry's payload *)
  check_bool "mismatch" true (C.find c "f2" = None);
  C.add c ~fingerprint:"f1" ~family:"fam" 42;
  check_bool "replace" true (C.find c "f1" = Some 42);
  let s = C.stats c in
  check_int "hits" 2 s.C.hits;
  check_int "misses" 2 s.C.misses;
  check_int "size" 1 s.C.size;
  check_int "no evictions" 0 s.C.evictions

let test_cache_lru_eviction () =
  let c = C.create ~capacity:2 in
  C.add c ~fingerprint:"a" ~family:"fa" 1;
  C.add c ~fingerprint:"b" ~family:"fb" 2;
  ignore (C.find c "a");
  (* a is now more recent than b: adding c must evict b *)
  C.add c ~fingerprint:"c" ~family:"fc" 3;
  check_bool "a survives" true (C.find c "a" = Some 1);
  check_bool "b evicted" true (C.find c "b" = None);
  check_bool "c present" true (C.find c "c" = Some 3);
  check_int "one eviction" 1 (C.stats c).C.evictions

let test_cache_family () =
  let c = C.create ~capacity:4 in
  check_bool "no sibling" true (C.find_family c ~family:"fam" = None);
  C.add c ~fingerprint:"f1" ~family:"fam" 1;
  C.add c ~fingerprint:"f2" ~family:"fam" 2;
  C.add c ~fingerprint:"g1" ~family:"other" 3;
  (* most recently used sibling wins *)
  check_bool "latest sibling" true
    (C.find_family c ~family:"fam" = Some ("f2", 2));
  ignore (C.find c "f1");
  check_bool "recency moves" true
    (C.find_family c ~family:"fam" = Some ("f1", 1));
  (* only successful sibling lookups count as warm seeds *)
  check_int "warm seeds counted" 2 (C.stats c).C.warm_seeds

(* Model-based property: the cache behaves exactly like a reference
   LRU map, op for op — in particular a [find] can only ever return
   the payload last [add]ed under that exact fingerprint (never a
   stale or sibling value), and eviction order is deterministic. *)
let prop_cache_model =
  QCheck.Test.make ~name:"cache matches reference LRU model" ~count:300
    QCheck.(list (pair bool (int_range 0 7)))
    (fun ops ->
      let capacity = 3 in
      let c = C.create ~capacity in
      let model : (string, int * int) Hashtbl.t = Hashtbl.create 8 in
      let tick = ref 0 in
      let payload = ref 100 in
      List.for_all
        (fun (is_add, key) ->
          let fp = Printf.sprintf "fp%d" key in
          if is_add then begin
            incr payload;
            C.add c ~fingerprint:fp ~family:"fam" !payload;
            incr tick;
            if not (Hashtbl.mem model fp)
               && Hashtbl.length model >= capacity then begin
              let victim =
                Hashtbl.fold
                  (fun k (_, t) acc ->
                    match acc with
                    | Some (_, t') when t' <= t -> acc
                    | _ -> Some (k, t))
                  model None
              in
              match victim with
              | Some (k, _) -> Hashtbl.remove model k
              | None -> ()
            end;
            Hashtbl.replace model fp (!payload, !tick);
            true
          end
          else
            let got = C.find c fp in
            let expect =
              match Hashtbl.find_opt model fp with
              | Some (v, _) ->
                incr tick;
                Hashtbl.replace model fp (v, !tick);
                Some v
              | None -> None
            in
            got = expect)
        ops
      && C.size c = Hashtbl.length model)

(* ---------- engine ---------- *)

let with_engine ?(jobs = 1) ?cache_capacity f =
  let e = E.create ~jobs ?cache_capacity () in
  Fun.protect ~finally:(fun () -> E.shutdown e) (fun () -> f e)

let run_batch e lines = E.process e (List.map P.parse_request lines)

let small ?(alpha = 0.2) ?(klass = "gold") ?(deadline = 60.0)
    ?(objective = "no-obj") ~id seed =
  Printf.sprintf
    {|{"id":"%s","op":"solve","workload":"small","seed":%d,"objective":"%s","alpha":%g,"deadline_s":%g,"class":"%s"}|}
    id seed objective alpha deadline klass

let test_engine_hit_and_warm () =
  with_engine @@ fun e ->
  match
    run_batch e
      [
        small ~id:"a" 7; small ~id:"b" 7; small ~id:"c" ~alpha:0.25 7;
      ]
  with
  | [ la; lb; lc ] ->
    let a = parse_obj la and b = parse_obj lb and c = parse_obj lc in
    check_string "a status" "ok" (sfield a "status");
    check_string "a cold" "miss" (sfield a "cache");
    (* a miss starts from the heuristic plan, which NO-OBJ proves as it
       stands *)
    check_int "miss explores no nodes" 0 (ifield a "nodes");
    check_int "miss does no pivots" 0 (ifield a "pivots");
    check_bool "miss certified" true
      (J.as_bool "certified" (J.field "r" a "certified"));
    check_string "b hit" "hit" (sfield b "cache");
    check_int "hit does no work" 0 (ifield b "pivots");
    check_int "hit explores no nodes" 0 (ifield b "nodes");
    (* the solution fields of the hit are byte-identical to the miss *)
    check_string "byte-identical core" (core_suffix la) (core_suffix lb);
    check_string "perturbed repeat warm-starts" "warm" (sfield c "cache");
    (* the sibling's plan passes c's rows and, under NO-OBJ, is proven
       optimal as it stands: no node, no pivot *)
    check_int "plan seed explores no nodes" 0 (ifield c "nodes");
    check_int "plan seed does no pivots" 0 (ifield c "pivots");
    check_bool "plan seed certified" true
      (J.as_bool "certified" (J.field "r" c "certified"));
    let cs = E.cache_stats e in
    check_int "one hit" 1 cs.C.hits;
    check_int "one warm seed" 1 cs.C.warm_seeds
  | ls -> Alcotest.failf "expected 3 responses, got %d" (List.length ls)

(* A crash line is an unknown op: the batch answers it with an error and
   answers the stats line after it, in order. *)
let test_engine_crash_is_unknown () =
  with_engine @@ fun e ->
  match
    run_batch e
      [ {|{"id":"k","op":"crash","times":1}|}; {|{"id":"s","op":"stats"}|} ]
  with
  | [ lk; ls ] ->
    let k = parse_obj lk and st = parse_obj ls in
    check_string "crash line first" "k" (sfield k "id");
    check_string "crash is an error" "error" (sfield k "status");
    check_string "unknown op"
      {|invalid request: op: expected solve/stats, got "crash"|}
      (sfield k "error");
    check_string "stats second" "s" (sfield st "id");
    check_string "stats ok" "ok" (sfield st "status");
    check_int "no worker died" 0 (ifield st "pool_crashes")
  | ls -> Alcotest.failf "expected 2 responses, got %d" (List.length ls)

let test_engine_errors () =
  with_engine @@ fun e ->
  match
    run_batch e
      [
        {|{"id":"m","op":"solve","objectve":"dmat"}|};
        small ~id:"d" ~deadline:0.0 7;
        "garbage";
      ]
  with
  | [ lm; ld; lg ] ->
    let m = parse_obj lm and d = parse_obj ld and g = parse_obj lg in
    check_string "malformed id recovered" "m" (sfield m "id");
    check_string "malformed is error" "error" (sfield m "status");
    check_string "expired is error" "error" (sfield d "status");
    check_bool "says expired" true
      (find_sub (sfield d "error") "deadline expired" <> None);
    check_string "garbage still answered" "error" (sfield g "status")
  | _ -> Alcotest.fail "expected three responses"

let test_engine_shedding () =
  with_engine @@ fun e ->
  (* bronze with a sub-second budget cannot afford the MILP *)
  match run_batch e [ small ~id:"s" ~klass:"bronze" ~deadline:0.8 7 ] with
  | [ l ] ->
    let ms = parse_obj l in
    check_string "answered" "ok" (sfield ms "status");
    check_bool "shed off the MILP" true (sfield ms "tier" <> "milp");
    check_string "shed tiers bypass the cache" "none" (sfield ms "cache")
  | _ -> Alcotest.fail "expected one response"

let test_engine_stats_sees_batch () =
  with_engine @@ fun e ->
  match run_batch e [ small ~id:"a" 7; {|{"id":"s","op":"stats"}|} ] with
  | [ _; l ] ->
    let ms = parse_obj l in
    check_int "requests" 2 (ifield ms "requests");
    check_int "solved" 1 (ifield ms "solved");
    check_int "batches" 1 (ifield ms "batches");
    check_int "max batch" 2 (ifield ms "max_batch");
    check_int "cached model" 1 (ifield ms "cache_size")
  | _ -> Alcotest.fail "expected two responses"

(* Ids sent with \u escapes, as Python's json.dumps sends any non-ASCII
   text, come back as their UTF-8 bytes: two ids that differ only in an
   accent stay two ids, a surrogate pair is one 4-byte code point, and
   a lone surrogate is not a string. *)
let test_engine_escaped_ids () =
  with_engine @@ fun e ->
  match
    run_batch e
      [
        {|{"id":"caf\u00e9","op":"stats"}|};
        {|{"id":"caf\u00e8","op":"stats"}|};
        {|{"id":"\ud83d\ude00","op":"stats"}|};
        {|{"id":"\ud800","op":"stats"}|};
      ]
  with
  | [ l1; l2; l3; l4 ] ->
    check_string "e acute" "caf\xc3\xa9" (sfield (parse_obj l1) "id");
    check_string "e grave" "caf\xc3\xa8" (sfield (parse_obj l2) "id");
    check_string "surrogate pair" "\xf0\x9f\x98\x80" (sfield (parse_obj l3) "id");
    let ms = parse_obj l4 in
    check_string "lone surrogate is an error" "error" (sfield ms "status");
    check_bool "says invalid request" true
      (find_sub (sfield ms "error") "invalid request" <> None)
  | ls -> Alcotest.failf "expected 4 responses, got %d" (List.length ls)

(* Real solves on two worker domains answer exactly what one domain
   answers: same tier, solver status, objective, transfers and work,
   request by request. Only the wall time may differ. *)
let test_engine_two_domains () =
  let mask_time line =
    match find_sub line "\"time_s\":" with
    | None -> line
    | Some i ->
      let j = ref (i + 9) in
      while !j < String.length line && line.[!j] <> ',' && line.[!j] <> '}' do
        incr j
      done;
      String.sub line 0 (i + 9) ^ "0" ^ String.sub line !j (String.length line - !j)
  in
  let batch jobs =
    with_engine ~jobs @@ fun e ->
    List.map mask_time
      (run_batch e
         (List.map
            (fun seed -> small ~id:(Printf.sprintf "p%d" seed) ~deadline:120.0 seed)
            [ 2; 4; 7; 9; 11; 12 ]))
  in
  let one = batch 1 and two = batch 2 in
  List.iter
    (fun l -> check_string "answered" "ok" (sfield (parse_obj l) "status"))
    one;
  List.iter2 (check_string "jobs 2 answers as jobs 1") one two

let prepare app ~alpha =
  match Letdma.Experiment.prepare app ~alpha with
  | Ok p -> Some p
  | Error _ -> None

(* A fresh engine's one response to [line]. *)
let answer line =
  match with_engine (fun e -> run_batch e [ line ]) with
  | [ l ] -> parse_obj l
  | ls -> Alcotest.failf "expected 1 response, got %d" (List.length ls)

(* The service, [letdma solve] and the durable path share one front
   door: on a configuration [Experiment.prepare] accepts, a fresh
   engine's miss, [Experiment.run_config] (what [letdma solve] runs) and
   [Solve.solve ~checkpoint_file] (what [letdma solve --checkpoint]
   runs) answer the same %.17g objective, nodes, pivots and
   certificate. [None] when [prepare] turns the configuration away. *)
let front_door_agrees ~objective ~alpha seed =
  let app = Workload.make ~labels_per_edge:1 ~seed Workload.Small in
  Option.map
    (fun (groups, gamma) ->
      let what = Printf.sprintf "seed %d %s: " seed objective in
      let obj = List.assoc objective Letdma.Formulation.objective_flags in
      let ms = answer (small ~id:"d" ~objective ~alpha ~deadline:120.0 seed) in
      check_string (what ^ "a miss") "miss" (sfield ms "cache");
      let served =
        ( Printf.sprintf "%.17g"
            (J.as_float "objective" (J.field "r" ms "objective")),
          ifield ms "nodes",
          ifield ms "pivots",
          J.as_bool "certified" (J.field "r" ms "certified") )
      in
      (* the %.17g objective of an assignment of this configuration's
         model *)
      let inst = Letdma.Formulation.make obj app groups ~gamma in
      let value x =
        Printf.sprintf "%.17g"
          (Milp.Linexpr.eval
             (snd (Milp.Problem.objective inst.Letdma.Formulation.problem))
             x)
      in
      let cli =
        match
          Letdma.Experiment.run_config
            ~solver:(Letdma.Experiment.milp ~time_limit_s:120.0 obj) app ~alpha
        with
        | Error e -> Alcotest.fail (what ^ Letdma.Experiment.error_to_string e)
        | Ok r ->
          let st = Option.get r.Letdma.Experiment.solve_stats in
          ( Option.fold ~none:"none" ~some:value
              (Letdma.Formulation.encode inst r.Letdma.Experiment.solution),
            st.Letdma.Solve.nodes,
            st.Letdma.Solve.lp.Milp.Branch_bound.lp_pivots,
            true )
      in
      let file = Filename.temp_file "service_front_door" ".json" in
      let durable =
        Fun.protect
          ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
          (fun () ->
            let r =
              Letdma.Solve.solve ~time_limit_s:120.0 ~checkpoint_file:file obj
                app groups ~gamma
            in
            let st = r.Letdma.Solve.stats in
            ( Option.fold ~none:"none" ~some:value r.Letdma.Solve.x,
              st.Letdma.Solve.nodes,
              st.Letdma.Solve.lp.Milp.Branch_bound.lp_pivots,
              match r.Letdma.Solve.certificate with
              | Some (Ok _) -> true
              | _ -> false ))
      in
      let show (o, n, p, c) = Printf.sprintf "%s/%d/%d/%b" o n p c in
      check_string (what ^ "letdma solve") (show cli) (show served);
      check_string (what ^ "durable solve") (show durable) (show served))
    (prepare app ~alpha)

(* NO-OBJ on random small draws (gold, 120 s): every miss is proved from
   its start, so all three paths agree. *)
let prop_front_door =
  QCheck.Test.make ~name:"answers as the front door" ~count:8
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      match front_door_agrees ~objective:"no-obj" ~alpha:0.2 seed with
      | Some () -> true
      | None -> QCheck.assume_fail ())

(* OBJ-DMAT on two draws that prove within the deadline (seed 7 at its
   start, seed 20 after a search), and a shed request, which answers
   with the ladder's fallback plan. *)
let test_engine_front_door_dmat_and_shed () =
  List.iter
    (fun (seed, alpha) ->
      match front_door_agrees ~objective:"dmat" ~alpha seed with
      | Some () -> ()
      | None -> Alcotest.failf "seed %d turned away" seed)
    [ (7, 0.2); (20, 0.3) ];
  let ms =
    answer {|{"id":"w","op":"solve","workload":"waters","deadline_s":0.5,"class":"bronze"}|}
  in
  check_string "bronze at 0.5 s is shed to the heuristic" "heuristic"
    (sfield ms "tier");
  let app = Workload.make ~labels_per_edge:1 ~seed:42 Workload.Waters in
  match prepare app ~alpha:0.2 with
  | None -> Alcotest.fail "WATERS turned away"
  | Some (groups, gamma) -> (
    match Pipeline.fallback Pipeline.Heuristic app groups ~gamma with
    | None -> Alcotest.fail "the heuristic found no WATERS plan"
    | Some (sol, verdict) ->
      check_int "fallback transfers"
        (Letdma.Solution.num_transfers sol)
        (ifield ms "transfers");
      check_bool "fallback verdict" (Result.is_ok verdict)
        (J.as_bool "certified" (J.field "r" ms "certified")))

(* OBJ-DEL on two draws that prove well within the deadline, so the
   three paths explore the same nodes: the floor search proves seed
   863946837 in 23 nodes, and seed 121024505's start meets the floor
   (0 nodes). *)
let test_engine_front_door_del () =
  List.iter
    (fun seed ->
      match front_door_agrees ~objective:"del" ~alpha:0.3 seed with
      | Some () -> ()
      | None -> Alcotest.failf "seed %d turned away" seed)
    [ 863946837; 121024505 ]

(* ---------- daemon end-to-end ---------- *)

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

let read_to_eof fd =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Buffer.contents buf
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      go ()
  in
  go ()

(* The acceptance-gate session: >= 20 scripted requests covering cold
   solves, exact repeats, perturbed repeats, shedding, two unknown-op
   lines, a malformed line, an over-deadline request and a final stats
   probe — all answered in order through one daemon over pipes. *)
let test_daemon_e2e () =
  let script =
    [
      small ~id:"q01" ~klass:"bronze" ~deadline:0.9 2;
      small ~id:"q02" 2;
      small ~id:"q03" 4;
      small ~id:"q04" 7;
      small ~id:"q05" 11;
      small ~id:"q06" 2;
      small ~id:"q07" 4;
      small ~id:"q08" 7;
      small ~id:"q09" 11;
      small ~id:"q10" 7;
      small ~id:"q11" ~alpha:0.25 2;
      small ~id:"q12" ~alpha:0.25 4;
      small ~id:"q13" ~alpha:0.25 7;
      small ~id:"q14" ~alpha:0.3 2;
      small ~id:"q15" ~alpha:0.3 7;
      small ~id:"q16" ~klass:"silver" 11;
      {|{"id":"q17","op":"crash","times":1}|};
      {|{"id":"q18","op":"crash","times":2}|};
      {|{"id":"q19","op":"solve","objectve":"dmat"}|};
      small ~id:"q20" ~deadline:0.0 4;
      {|{"id":"q21","op":"stats"}|};
    ]
  in
  let req_r, req_w = Unix.pipe () in
  let resp_r, resp_w = Unix.pipe () in
  write_all req_w (String.concat "\n" script ^ "\n");
  Unix.close req_w;
  let engine = E.create ~jobs:1 () in
  let outcome = D.run ~input:req_r ~output:resp_w engine in
  E.shutdown engine;
  Unix.close resp_w;
  Unix.close req_r;
  let out = read_to_eof resp_r in
  Unix.close resp_r;
  check_bool "drained shutdown" true (outcome = Ok 0);
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' out)
  in
  check_int "every request answered" (List.length script)
    (List.length lines);
  let by_id = List.map (fun l -> (sfield (parse_obj l) "id", l)) lines in
  (* responses come back in request order *)
  List.iteri
    (fun i (id, _) ->
      let expect = if i = 18 then "q19" else Printf.sprintf "q%02d" (i + 1) in
      check_string "response order" expect id)
    by_id;
  let resp id = List.assoc id by_id in
  let field id k = sfield (parse_obj (resp id)) k in
  (* shed, cold, hit, warm *)
  check_bool "bronze shed off the MILP" true (field "q01" "tier" <> "milp");
  List.iter
    (fun id -> check_string (id ^ " cold") "miss" (field id "cache"))
    [ "q02"; "q03"; "q04"; "q05" ];
  List.iter
    (fun (r, m) ->
      check_string (r ^ " hit") "hit" (field r "cache");
      check_string (r ^ " byte-identical") (core_suffix (resp m))
        (core_suffix (resp r)))
    [ ("q06", "q02"); ("q07", "q03"); ("q08", "q04"); ("q09", "q05");
      ("q10", "q04") ];
  List.iter
    (fun id -> check_string (id ^ " warm") "warm" (field id "cache"))
    [ "q11"; "q12"; "q13"; "q14"; "q15" ];
  (* crash is not an op *)
  List.iter
    (fun id ->
      check_string (id ^ " unknown op") "error" (field id "status");
      check_bool (id ^ " names the ops") true
        (find_sub (field id "error") "expected solve/stats" <> None))
    [ "q17"; "q18" ];
  (* failure modes *)
  check_string "malformed answered" "error" (field "q19" "status");
  check_string "expired answered" "error" (field "q20" "status");
  (* the stats probe proves the cache did its job *)
  let stats = parse_obj (resp "q21") in
  check_int "all requests counted" 21 (ifield stats "requests");
  check_bool "cache hits observed" true (ifield stats "cache_hits" >= 5);
  check_bool "warm seeds observed" true
    (ifield stats "cache_warm_seeds" >= 5);
  check_int "no worker died" 0 (ifield stats "pool_crashes")

(* A second session against the same daemon code path via the
   Unix-domain socket listener: connect, probe stats, disconnect, then
   EOF on the primary input shuts the daemon down. *)
let test_daemon_socket () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "letdma-test-%d.sock" (Unix.getpid ()))
  in
  let req_r, req_w = Unix.pipe () in
  let resp_r, resp_w = Unix.pipe () in
  let engine = E.create ~jobs:1 () in
  let daemon =
    Domain.spawn (fun () ->
        D.run ~socket:path ~input:req_r ~output:resp_w engine)
  in
  let client = Unix.socket PF_UNIX SOCK_STREAM 0 in
  let rec connect tries =
    match Unix.connect client (ADDR_UNIX path) with
    | () -> ()
    | exception Unix.Unix_error ((ENOENT | ECONNREFUSED), _, _)
      when tries > 0 ->
      Unix.sleepf 0.05;
      connect (tries - 1)
  in
  connect 100;
  write_all client "{\"id\":\"s\",\"op\":\"stats\"}\n";
  let buf = Bytes.create 4096 in
  let n = Unix.read client buf 0 (Bytes.length buf) in
  let ms = parse_obj (Bytes.sub_string buf 0 n) in
  check_string "socket answered" "ok" (sfield ms "status");
  check_string "stats op" "stats" (sfield ms "op");
  Unix.close client;
  Unix.close req_w (* EOF on the primary input: drained shutdown *);
  let outcome = Domain.join daemon in
  E.shutdown engine;
  Unix.close resp_w;
  Unix.close resp_r;
  Unix.close req_r;
  check_bool "clean exit" true (outcome = Ok 0);
  check_bool "socket unlinked" true (not (Sys.file_exists path))

let () =
  Alcotest.run "service"
    [
      ( "protocol",
        [
          Alcotest.test_case "solve defaults" `Quick test_parse_defaults;
          Alcotest.test_case "solve full form" `Quick test_parse_full;
          Alcotest.test_case "unknown member rejected" `Quick
            test_parse_rejects_unknown_member;
          Alcotest.test_case "bad values rejected" `Quick
            test_parse_rejects_bad_values;
          Alcotest.test_case "stats and crash ops" `Quick test_parse_ops;
          Alcotest.test_case "deterministic rendering" `Quick
            test_render_deterministic;
          QCheck_alcotest.to_alcotest prop_protocol_fuzz;
        ] );
      ( "qos",
        [
          Alcotest.test_case "shedding table" `Quick test_qos_table;
          Alcotest.test_case "class names" `Quick test_qos_names;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit, miss, replace" `Quick test_cache_hit_miss;
          Alcotest.test_case "deterministic LRU eviction" `Quick
            test_cache_lru_eviction;
          Alcotest.test_case "family lookup for warm seeding" `Quick
            test_cache_family;
          QCheck_alcotest.to_alcotest prop_cache_model;
        ] );
      ( "engine",
        [
          Alcotest.test_case "byte-identical hit + warm seed" `Quick
            test_engine_hit_and_warm;
          Alcotest.test_case "crash is an unknown op" `Quick
            test_engine_crash_is_unknown;
          Alcotest.test_case "malformed, expired, garbage" `Quick
            test_engine_errors;
          Alcotest.test_case "bronze shedding" `Quick test_engine_shedding;
          Alcotest.test_case "stats sees its batch" `Quick
            test_engine_stats_sees_batch;
          Alcotest.test_case "escaped ids decode to UTF-8" `Quick
            test_engine_escaped_ids;
          QCheck_alcotest.to_alcotest prop_front_door;
          Alcotest.test_case "OBJ-DMAT and shed answers as the front door"
            `Quick test_engine_front_door_dmat_and_shed;
          Alcotest.test_case "two domains answer as one" `Quick
            test_engine_two_domains;
          Alcotest.test_case "OBJ-DEL answers as the front door" `Quick
            test_engine_front_door_del;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "scripted e2e session" `Slow test_daemon_e2e;
          Alcotest.test_case "unix socket listener" `Quick
            test_daemon_socket;
        ] );
    ]
