(* Tests for lib/resilience and the solver-side crash-resilience
   features it packages: byte-identical checkpoint round trips, strict
   load-time validation, kill-and-resume trajectory identity for the
   best-first search (deterministic and property-based), and the LP
   iteration limit ending a search gracefully. *)

module P = Milp.Problem
module L = Milp.Linexpr
module B = Milp.Branch_bound
module Ck = Resilience.Checkpoint

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* A deterministic knapsack family with fractional LP roots, so every
   instance explores a real tree. *)
let knapsack seed =
  let n = 8 in
  let rand =
    let state = ref (seed * 2654435761 land 0x3FFFFFFF) in
    fun bound ->
      state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
      1 + (!state mod bound)
  in
  let weights = Array.init n (fun _ -> rand 20) in
  let values = Array.init n (fun _ -> rand 20) in
  let cap = float_of_int (3 + rand 40) +. 0.5 in
  let p = P.create () in
  let xs = Array.init n (fun i -> P.binary ~name:(Printf.sprintf "k%d" i) p) in
  ignore
    (P.add_constr p
       (L.of_list
          (Array.to_list
             (Array.mapi (fun i x -> (float_of_int weights.(i), x)) xs)))
       P.Le cap);
  P.set_objective p P.Maximize
    (L.of_list
       (Array.to_list (Array.mapi (fun i x -> (float_of_int values.(i), x)) xs)));
  p

(* Interrupt a best-first solve after [k] explored nodes and hand back
   the final checkpoint the solver emits on its way out. *)
let interrupt_after p k =
  let seen = ref 0 in
  let hooks =
    {
      B.no_hooks with
      B.should_stop = (fun () -> !seen >= k);
      on_node = (fun ~node:_ ~depth:_ ~bound:_ ~pivots:_ -> incr seen);
    }
  in
  let captured = ref None in
  let s =
    B.solve ~time_limit_s:60.0 ~hooks
      ~on_checkpoint:(fun ck -> captured := Some ck)
      p
  in
  (s, !captured)

(* ------------------------------------------------------------------ *)
(* Checkpoint serialization                                            *)
(* ------------------------------------------------------------------ *)

(* A mid-tree snapshot with a live frontier, an incumbent and a
   non-empty basis pool — the checkpoint writer's full surface. *)
let rich_checkpoint () =
  let p = knapsack 3 in
  let full = B.solve ~time_limit_s:60.0 p in
  check_bool "reference solve is optimal" true (full.B.status = B.Optimal);
  let k = max 2 (full.B.stats.B.nodes / 2) in
  match interrupt_after p k with
  | _, Some ck ->
    Ck.make
      ~meta:[ ("objective", "knapsack-3"); ("engine", "best_first") ]
      ~fingerprint:(Ck.fingerprint p) ck
  | _, None -> Alcotest.fail "interrupted solve emitted no checkpoint"

let test_roundtrip_byte_identity () =
  let ck = rich_checkpoint () in
  let bf = ck.Ck.ck_state in
  check_bool "snapshot has open nodes" true (bf.B.ck_frontier <> []);
  check_bool "snapshot has pooled bases" true (bf.B.ck_pool <> []);
  let s1 = Ck.to_string ck in
  match Ck.of_string s1 with
  | Error m -> Alcotest.fail ("reload rejected own output: " ^ m)
  | Ok ck' ->
    check_string "write -> load -> write is byte-identical" s1
      (Ck.to_string ck');
    check_string "fingerprint survives" ck.Ck.ck_fingerprint
      ck'.Ck.ck_fingerprint;
    check_bool "meta survives in order" true (ck.Ck.ck_meta = ck'.Ck.ck_meta)

(* The model fingerprint hashes [Problem.to_lp_string], so that text
   must carry everything a solve reads from the model: two builds of one
   model agree, and changing any one bound, coefficient, right-hand side,
   row sense, variable kind or the objective changes the fingerprint. *)
let test_fingerprint_tracks_the_model () =
  let build ?(lo_z = 0.5) ?(hi_y = 9.0) ?(coef = 2.0) ?(rhs = 7.0)
      ?(sense = P.Le) ?(kind_z = P.Continuous) ?(dir = P.Maximize)
      ?(obj_y = 1.0) () =
    let p = P.create () in
    let x = P.binary ~name:"x" p in
    let y = P.integer ~name:"y" ~lo:1.0 ~hi:hi_y p in
    let z = P.add_var ~name:"z" ~lo:lo_z ~hi:4.0 p kind_z in
    ignore
      (P.add_constr ~name:"r1" p
         (L.of_list [ (1.0, x); (coef, y); (-1.0, z) ])
         sense rhs);
    ignore
      (P.add_constr ~name:"r2" p (L.of_list [ (3.0, y); (1.0, z) ]) P.Ge 1.0);
    P.set_objective p dir (L.of_list [ (5.0, x); (obj_y, y); (0.5, z) ]);
    p
  in
  let base = Ck.fingerprint (build ()) in
  check_string "two builds of one model" base (Ck.fingerprint (build ()));
  List.iter
    (fun (what, p) ->
      check_bool (what ^ " changes the fingerprint") true
        (Ck.fingerprint p <> base))
    [
      ("a lower bound", build ~lo_z:0.25 ());
      ("an upper bound", build ~hi_y:8.0 ());
      ("a coefficient", build ~coef:2.5 ());
      ("a right-hand side", build ~rhs:7.5 ());
      ("a row sense", build ~sense:P.Ge ());
      ("a variable kind", build ~kind_z:P.Integer ());
      ("an objective coefficient", build ~obj_y:2.0 ());
      ("the objective sense", build ~dir:P.Minimize ());
    ]

(* Basis fingerprints span the full 63-bit range; a JSON number would
   round them through a float and lose low bits past 2^53, making every
   restored basis fail its signature check on resume. Pin the string
   encoding with the extreme values a real pool can contain. *)
let test_large_bsig_roundtrip () =
  let basis bsig =
    let open Milp.Simplex_core.Basis in
    {
      rows = [| Bvar 0; Bslack 1; Bnone |];
      at_upper = [| 2; 5 |];
      bm = 3;
      bn = 7;
      bsig;
    }
  in
  let bf =
    {
      B.ck_nodes = 1;
      ck_tie = 2;
      ck_simplex_solves = 3;
      ck_best = Some (1.5, [| 0.0; 1.0 |]);
      ck_cold_ref_pivots = None;
      ck_counters = Milp.Simplex_core.fresh_counters ();
      ck_lp_time_s = 0.0;
      ck_frontier =
        [
          {
            B.ck_prio = neg_infinity;
            ck_node_tie = 0;
            ck_depth = 0;
            ck_parent = -1;
            ck_overrides = [ (0, neg_infinity, 0.0); (1, 1.0, infinity) ];
          };
        ];
      ck_pool =
        [
          (0, basis max_int, 2, 1);
          (1, basis min_int, 1, 2);
          (2, basis ((1 lsl 53) + 1), 1, 3);
        ];
      ck_pool_tick = 3;
    }
  in
  let ck = Ck.make ~fingerprint:"fnv1a64:0000000000000000" bf in
  let s = Ck.to_string ck in
  match Ck.of_string s with
  | Error m -> Alcotest.fail ("reload rejected: " ^ m)
  | Ok ck' ->
    check_string "byte-identical" s (Ck.to_string ck');
    Alcotest.(check (list int))
      "fingerprints survive exactly"
      [ max_int; min_int; (1 lsl 53) + 1 ]
      (List.map
         (fun (_, (b : Milp.Simplex_core.Basis.t), _, _) ->
           b.Milp.Simplex_core.Basis.bsig)
         ck'.Ck.ck_state.B.ck_pool)

let test_save_load_files () =
  let ck = rich_checkpoint () in
  let file = Filename.temp_file "resilience_ck" ".json" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
    (fun () ->
      (match Ck.save file ck with
       | Ok () -> ()
       | Error m -> Alcotest.fail ("save failed: " ^ m));
      check_bool "no .tmp litter after an atomic save" false
        (Sys.file_exists (file ^ ".tmp"));
      match Ck.load file with
      | Error m -> Alcotest.fail ("load failed: " ^ m)
      | Ok ck' ->
        check_string "file round trip is byte-identical" (Ck.to_string ck)
          (Ck.to_string ck'));
  match Ck.load "/nonexistent/checkpoint.json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "loading a missing file must be an Error"

(* Corrupt one occurrence of [needle] in the serialized form and expect
   the strict loader to refuse the result. *)
let expect_reject what s =
  match Ck.of_string s with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail (what ^ ": corrupted checkpoint was accepted")

let replace_once ~needle ~by s =
  match
    let nl = String.length needle in
    let rec find i =
      if i + nl > String.length s then None
      else if String.sub s i nl = needle then Some i
      else find (i + 1)
    in
    find 0
  with
  | None -> Alcotest.fail (Printf.sprintf "marker %S not found" needle)
  | Some i ->
    String.sub s 0 i ^ by
    ^ String.sub s (i + String.length needle)
        (String.length s - i - String.length needle)

(* A checkpoint written by the retired depth-first engine (kind "dfs",
   incumbent-only state), byte for byte as that build saved it. *)
let dfs_checkpoint =
  "{\"version\":1,\"kind\":\"dfs\",\
   \"fingerprint\":\"fnv1a64:9b2ae0b73dfd3492\",\
   \"meta\":{\"objective\":\"dmat\",\"engine\":\"dfs\"},\
   \"state\":{\"nodes\":3,\"best\":{\"obj\":9,\"x\":[1,0,1]}}}\n"

(* A version-1 document carries two more state fields, [cutoff_foreign]
   and [foreign_prunes], which the reader ignores: the fixture rewritten
   into version-1 form loads into the same state and writes back as the
   version-2 original. *)
let test_version1_loads () =
  let ck = rich_checkpoint () in
  let s = Ck.to_string ck in
  let v1 =
    replace_once ~needle:"{\"version\":2," ~by:"{\"version\":1," s
    |> replace_once ~needle:",\"cold_ref_pivots\":"
         ~by:",\"cutoff_foreign\":false,\"foreign_prunes\":0,\"cold_ref_pivots\":"
  in
  match Ck.of_string v1 with
  | Error m -> Alcotest.fail ("version-1 document rejected: " ^ m)
  | Ok ck' ->
    check_bool "same search state" true (ck.Ck.ck_state = ck'.Ck.ck_state);
    check_string "same fingerprint" ck.Ck.ck_fingerprint ck'.Ck.ck_fingerprint;
    check_bool "same meta" true (ck.Ck.ck_meta = ck'.Ck.ck_meta);
    check_string "writes back as version 2" s (Ck.to_string ck')

let test_validator_rejections () =
  let s = Ck.to_string (rich_checkpoint ()) in
  expect_reject "garbage" "hello world";
  expect_reject "empty" "";
  expect_reject "truncated" (String.sub s 0 (String.length s - 5));
  (match
     Ck.of_string
       (replace_once ~needle:"{\"version\":2," ~by:"{\"version\":99," s)
   with
   | Error m ->
     check_bool "unknown version refused by version" true
       (String.starts_with ~prefix:"checkpoint: unsupported checkpoint version 99"
          m)
   | Ok _ -> Alcotest.fail "unknown version: corrupted checkpoint was accepted");
  expect_reject "unknown kind"
    (replace_once ~needle:"\"kind\":\"best_first\"" ~by:"\"kind\":\"mystery\"" s);
  expect_reject "NaN token"
    (replace_once ~needle:"\"lp_time_s\":" ~by:"\"lp_time_s\":NaN,\"x\":" s);
  expect_reject "Infinity token"
    (replace_once ~needle:"\"lp_time_s\":" ~by:"\"lp_time_s\":Infinity,\"x\":" s);
  expect_reject "type mismatch (string where int expected)"
    (replace_once ~needle:"\"pool_tick\":" ~by:"\"pool_tick\":\"many\",\"x\":" s);
  expect_reject "non-numeric bsig string"
    (replace_once ~needle:"\"bsig\":\"" ~by:"\"bsig\":\"x" s);
  (* a numeric (non-string) bsig is exactly the float-precision trap the
     format forbids — the loader must refuse it, not silently round *)
  expect_reject "bsig as a bare JSON number"
    (replace_once ~needle:"\"bsig\":\"" ~by:"\"bsig\":9007199254740993,\"y\":\""
       s);
  (match Ck.of_string dfs_checkpoint with
   | Error m ->
     check_string "dfs checkpoint refused by kind"
       "checkpoint: unknown checkpoint kind \"dfs\"" m
   | Ok _ -> Alcotest.fail "dfs checkpoint was accepted");
  (* sanity: the uncorrupted document still loads *)
  match Ck.of_string s with
  | Ok _ -> ()
  | Error m -> Alcotest.fail ("control load failed: " ^ m)

(* ------------------------------------------------------------------ *)
(* Corrupted checkpoints of a real solve                               *)
(* ------------------------------------------------------------------ *)

module Basis = Milp.Simplex_core.Basis

(* The chaos instance (small generator seed 8, OBJ-DMAT at alpha 0.2,
   1895 nodes to optimality from its MIP start), interrupted after 300
   nodes as `letdma solve --checkpoint --interrupt-after 300` leaves it:
   a frontier of open nodes, a pool of bases and the start as its
   incumbent. *)
let chaos =
  lazy
    (let app = Workload.make ~labels_per_edge:1 ~seed:8 Workload.Small in
     match Letdma.Experiment.prepare app ~alpha:0.2 with
     | Error e -> Alcotest.fail (Letdma.Experiment.error_to_string e)
     | Ok (groups, gamma) ->
       let file = Filename.temp_file "resilience_chaos" ".json" in
       Fun.protect
         ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
         (fun () ->
           ignore
             (Letdma.Solve.solve ~time_limit_s:120.0 ~checkpoint_file:file
                ~interrupt_after_nodes:300 Letdma.Formulation.Min_transfers
                app groups ~gamma);
           match Ck.load file with
           | Ok ck -> (app, groups, gamma, ck)
           | Error m -> Alcotest.fail ("chaos checkpoint unreadable: " ^ m)))

let resume_chaos ck =
  let app, groups, gamma, _ = Lazy.force chaos in
  Letdma.Solve.solve ~time_limit_s:1.0 ~node_limit:320 ~resume:ck
    Letdma.Formulation.Min_transfers app groups ~gamma

let with_state f (ck : Ck.t) = { ck with Ck.ck_state = f ck.Ck.ck_state }

(* Edit the first pooled basis / the first open node. *)
let with_basis f =
  with_state (fun st ->
      match st.B.ck_pool with
      | (id, b, refs, last) :: rest ->
        { st with B.ck_pool = (id, f b, refs, last) :: rest }
      | [] -> Alcotest.fail "chaos checkpoint has no pooled basis")

let with_node f =
  with_state (fun st ->
      match st.B.ck_frontier with
      | n :: rest -> { st with B.ck_frontier = f n :: rest }
      | [] -> Alcotest.fail "chaos checkpoint has no open node")

let set_row0 e =
  with_basis (fun b ->
      let rows = Array.copy b.Basis.rows in
      rows.(0) <- e;
      { b with Basis.rows })

(* Each edit once made `letdma resume` die with SIGSEGV (the milp
   library is built without bounds checks), or exit with a bare "index
   out of bounds". The loader refuses the first three; the resume
   refuses the other two before branch-and-bound indexes its arrays. *)
let test_corrupt_refused_on_load name edit () =
  let _, _, _, ck = Lazy.force chaos in
  match Ck.of_string (Ck.to_string (edit ck)) with
  | Error m ->
    check_bool (name ^ ": structured loader error") true
      (String.starts_with ~prefix:"checkpoint: " m)
  | Ok _ -> Alcotest.fail (name ^ ": corrupted checkpoint was accepted")

let test_corrupt_refused_on_resume name edit () =
  let _, _, _, ck = Lazy.force chaos in
  match Ck.of_string (Ck.to_string (edit ck)) with
  | Error m -> Alcotest.fail (name ^ ": loader refused a well-formed file: " ^ m)
  | Ok ck' -> (
    match resume_chaos ck' with
    | exception Invalid_argument m ->
      check_bool (name ^ ": structured resume error") true
        (String.starts_with ~prefix:"checkpoint: " m)
    | _ -> Alcotest.fail (name ^ ": corrupted checkpoint was resumed"))

let corrupt_on_load =
  [
    ("pool row entry v99999999", set_row0 (Basis.Bvar 99999999));
    ( "rows cut to 3 entries",
      with_basis (fun b -> { b with Basis.rows = Array.sub b.Basis.rows 0 3 })
    );
    ( "-5000000 prepended to at_upper",
      with_basis (fun b ->
          { b with Basis.at_upper = Array.append [| -5000000 |] b.Basis.at_upper })
    );
  ]

let corrupt_on_resume =
  [
    ( "frontier override [99999999,0,1]",
      with_node (fun n ->
          { n with B.ck_overrides = (99999999, 0.0, 1.0) :: n.B.ck_overrides }) );
    ( "one-entry incumbent",
      with_state (fun st -> { st with B.ck_best = Some (1.0, [| 0.0 |]) }) );
    ( "all-zeros incumbent",
      with_state (fun st ->
          match st.B.ck_best with
          | Some (obj, x) ->
            { st with B.ck_best = Some (obj, Array.make (Array.length x) 0.0) }
          | None -> Alcotest.fail "chaos checkpoint has no incumbent") );
  ]

(* One random edit of the chaos checkpoint, typed or byte-level: the
   file either fails to load with a structured error, or resumes — to a
   result, or to [Invalid_argument] or [Failure], which the CLI reports
   as a one-line error with exit 1. Any other exception, or a crash,
   fails. *)
let corruptions =
  [
    ("basis row entry v", fun v -> set_row0 (Basis.Bvar v));
    ("basis row entry s", fun v -> set_row0 (Basis.Bslack v));
    ( "basis rows length",
      fun v ->
        with_basis (fun b ->
            let n = abs v mod 400 in
            { b with Basis.rows = Array.init n (fun i ->
                  if i < Array.length b.Basis.rows then b.Basis.rows.(i)
                  else Basis.Bnone) }) );
    ( "basis at_upper entry",
      fun v ->
        with_basis (fun b ->
            { b with Basis.at_upper = Array.append [| v |] b.Basis.at_upper }) );
    ("basis bm", fun v -> with_basis (fun b -> { b with Basis.bm = v }));
    ("basis bn", fun v -> with_basis (fun b -> { b with Basis.bn = v }));
    ( "frontier override variable",
      fun v ->
        with_node (fun n ->
            { n with B.ck_overrides = (v, 0.0, 1.0) :: n.B.ck_overrides }) );
    ("frontier parent", fun v -> with_node (fun n -> { n with B.ck_parent = v }));
    ("frontier depth", fun v -> with_node (fun n -> { n with B.ck_depth = v }));
    ( "pool refcount",
      fun v ->
        with_state (fun st ->
            match st.B.ck_pool with
            | (id, b, _, last) :: rest -> { st with B.ck_pool = (id, b, v, last) :: rest }
            | [] -> st) );
    ( "incumbent length",
      fun v ->
        with_state (fun st ->
            { st with B.ck_best = Some (0.0, Array.make (abs v mod 400) 0.0) }) );
    ("node count", fun v -> with_state (fun st -> { st with B.ck_nodes = v }));
  ]

let prop_corrupt_checkpoint =
  let gen =
    QCheck.Gen.(
      triple
        (int_bound (List.length corruptions))
        (oneof [ int_range (-3) 400; int_range (-100_000_000) 100_000_000 ])
        (int_bound 1_000_000))
  in
  let print (k, v, at) =
    if k = List.length corruptions then Printf.sprintf "byte %d -> %d" at v
    else Printf.sprintf "%s := %d" (fst (List.nth corruptions k)) v
  in
  QCheck.Test.make
    ~name:"a corrupted checkpoint loads with an error or resumes" ~count:30
    (QCheck.make ~print gen)
    (fun (k, v, at) ->
      let _, _, _, ck = Lazy.force chaos in
      let doc =
        if k = List.length corruptions then begin
          (* one byte of the file overwritten *)
          let b = Bytes.of_string (Ck.to_string ck) in
          Bytes.set b (at mod Bytes.length b) (Char.chr (abs v mod 256));
          Bytes.to_string b
        end
        else Ck.to_string ((snd (List.nth corruptions k)) v ck)
      in
      match Ck.of_string doc with
      | Error m -> String.starts_with ~prefix:"checkpoint: " m
      | Ok ck' -> (
        match resume_chaos ck' with
        | _ | (exception (Invalid_argument _ | Failure _)) -> true))

(* ------------------------------------------------------------------ *)
(* Kill and resume: best-first trajectory identity                     *)
(* ------------------------------------------------------------------ *)

let check_resume_identical ~name p (full : B.solution) k =
  match interrupt_after p k with
  | _, None ->
    Alcotest.fail (name ^ ": interrupted solve emitted no checkpoint")
  | interrupted, Some ck ->
    check_bool
      (name ^ ": interrupt is inconclusive")
      true
      (interrupted.B.status = B.Feasible || interrupted.B.status = B.Unknown);
    let resumed = B.solve ~time_limit_s:60.0 ~resume:ck p in
    check_bool (name ^ ": resumed to optimality") true
      (resumed.B.status = B.Optimal);
    (* bit-identical, not approximately equal: same objective, same
       assignment, same cumulative trajectory counters *)
    check_bool (name ^ ": identical objective") true
      (resumed.B.obj = full.B.obj);
    check_bool (name ^ ": identical assignment") true (resumed.B.x = full.B.x);
    check_int (name ^ ": identical node count") full.B.stats.B.nodes
      resumed.B.stats.B.nodes;
    check_int
      (name ^ ": identical simplex solves")
      full.B.stats.B.simplex_solves resumed.B.stats.B.simplex_solves;
    check_int
      (name ^ ": identical LP pivots")
      full.B.stats.B.lp.B.lp_pivots resumed.B.stats.B.lp.B.lp_pivots

let test_resume_trajectory_identity () =
  let p = knapsack 3 in
  let full = B.solve ~time_limit_s:60.0 p in
  check_bool "baseline optimal" true (full.B.status = B.Optimal);
  let nodes = full.B.stats.B.nodes in
  check_bool "instance explores a tree" true (nodes >= 4);
  (* first node, mid-tree, and last-possible interrupt points *)
  List.iter
    (fun k ->
      check_resume_identical ~name:(Printf.sprintf "k=%d" k) p full k)
    [ 1; nodes / 2; nodes - 1 ]

(* The same claim, property-based: any instance, any interrupt point. *)
let prop_kill_resume =
  QCheck.Test.make
    ~name:"kill-and-resume reproduces the uninterrupted solve bit-for-bit"
    ~count:40
    QCheck.(pair (int_range 1 500) (int_range 1 99))
    (fun (seed, pct) ->
      let p = knapsack seed in
      let full = B.solve ~time_limit_s:60.0 p in
      QCheck.assume (full.B.status = B.Optimal);
      let nodes = full.B.stats.B.nodes in
      QCheck.assume (nodes >= 2);
      let k = max 1 (min (nodes - 1) (nodes * pct / 100)) in
      match interrupt_after p k with
      | _, None -> false
      | _, Some ck ->
        (* serialize through the on-disk format, as a real resume does *)
        let wrapped = Ck.make ~fingerprint:(Ck.fingerprint p) ck in
        let ck =
          match Ck.of_string (Ck.to_string wrapped) with
          | Ok { Ck.ck_state; _ } -> ck_state
          | Error m ->
            QCheck.Test.fail_reportf "seed %d: reload failed: %s" seed m
        in
        let resumed = B.solve ~time_limit_s:60.0 ~resume:ck p in
        if resumed.B.status <> B.Optimal then
          QCheck.Test.fail_reportf "seed %d k=%d: resume not optimal" seed k;
        resumed.B.obj = full.B.obj
        && resumed.B.x = full.B.x
        && resumed.B.stats.B.nodes = full.B.stats.B.nodes
        && resumed.B.stats.B.simplex_solves = full.B.stats.B.simplex_solves)

(* ------------------------------------------------------------------ *)
(* LP iteration limit: a cap is a limit, never a crash                 *)
(* ------------------------------------------------------------------ *)

let test_iteration_limit_is_graceful () =
  let p = knapsack 3 in
  (* per-node cap of 1 pivot: the root LP cannot finish *)
  let captured = ref None in
  let s =
    B.solve ~time_limit_s:60.0 ~max_lp_iters:1
      ~on_checkpoint:(fun ck -> captured := Some ck)
      p
  in
  check_bool "capped solve ends as a limit, not an exception" true
    (s.B.status = B.Unknown || s.B.status = B.Feasible);
  check_bool "a final checkpoint was emitted" true (Option.is_some !captured)

(* ------------------------------------------------------------------ *)
(* End to end: Letdma.Solve durable interrupt + resume                 *)
(* ------------------------------------------------------------------ *)

(* A small generator instance that searches from its MIP start (OBJ-DEL,
   379 nodes to optimality at alpha 0.3), checked end to end through
   [Letdma.Solve]: interrupt -> checkpoint on disk -> resume -> same
   certified objective and identical cumulative node count. *)
let test_solve_durable_interrupt_resume () =
  let objective = Letdma.Formulation.Min_delay_ratio in
  let prepared seed =
    let app =
      Workload.Generator.random ~seed ~config:Workload.Generator.small_config ()
    in
    match Letdma.Experiment.prepare app ~alpha:0.3 with
    | Ok (groups, gamma) -> (app, groups, gamma)
    | Error e -> Alcotest.fail (Letdma.Experiment.error_to_string e)
  in
  let app, groups, gamma = prepared 33 in
  let baseline =
    Letdma.Solve.solve ~time_limit_s:30.0 objective app groups ~gamma
  in
  check_bool "baseline optimal after a search" true
    (baseline.Letdma.Solve.stats.Letdma.Solve.status = B.Optimal
     && baseline.Letdma.Solve.stats.Letdma.Solve.nodes >= 10);
  let file = Filename.temp_file "resilience_solve" ".json" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
    (fun () ->
      let k = baseline.Letdma.Solve.stats.Letdma.Solve.nodes / 2 in
      let interrupted =
        Letdma.Solve.solve ~time_limit_s:30.0 ~checkpoint_file:file
          ~interrupt_after_nodes:k objective app groups ~gamma
      in
      check_bool "interrupted run is inconclusive" true
        (interrupted.Letdma.Solve.stats.Letdma.Solve.status <> B.Optimal);
      check_bool "checkpoint file left on disk" true (Sys.file_exists file);
      let ck =
        match Ck.load file with
        | Ok ck -> ck
        | Error m -> Alcotest.fail ("checkpoint unreadable: " ^ m)
      in
      let resumed =
        Letdma.Solve.solve ~time_limit_s:30.0 ~checkpoint_file:file
          ~resume:ck objective app groups ~gamma
      in
      let stats r = r.Letdma.Solve.stats in
      check_bool "resumed to optimality" true
        ((stats resumed).Letdma.Solve.status = B.Optimal);
      check_int "identical cumulative node count"
        (stats baseline).Letdma.Solve.nodes
        (stats resumed).Letdma.Solve.nodes;
      check_bool "identical raw assignment" true
        (resumed.Letdma.Solve.x = baseline.Letdma.Solve.x);
      check_bool "conclusive resume removed the checkpoint" false
        (Sys.file_exists file);
      (* a fingerprint from a different model must be refused *)
      let other, ogroups, ogamma = prepared 1033 in
      match
        Letdma.Solve.solve ~time_limit_s:5.0 ~resume:ck objective other
          ogroups ~gamma:ogamma
      with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "foreign checkpoint must be refused")

(* The interrupt hook counts the nodes of the whole solve, not of each
   lazy round, and no round starts once it has fired. Small seed 5
   OBJ-DEL at alpha 0.2 needs three rounds (65, 52, then 881 nodes to
   the proof): an interrupt at 300 nodes stops round 3 at node 300 in
   all, and one at 100 stops round 2 and returns without a third. *)
let test_interrupt_counts_the_solve () =
  let app =
    Workload.Generator.random ~seed:5 ~config:Workload.Generator.small_config ()
  in
  let groups, gamma =
    match Letdma.Experiment.prepare app ~alpha:0.2 with
    | Ok gg -> gg
    | Error e -> Alcotest.fail (Letdma.Experiment.error_to_string e)
  in
  List.iter
    (fun (after, rounds) ->
      let r =
        Letdma.Solve.solve ~time_limit_s:60.0 ~interrupt_after_nodes:after
          Letdma.Formulation.Min_delay_ratio app groups ~gamma
      in
      let st = r.Letdma.Solve.stats in
      let name = Printf.sprintf "interrupt after %d: " after in
      check_int (name ^ "nodes") after st.Letdma.Solve.nodes;
      check_int (name ^ "rounds") rounds st.Letdma.Solve.rounds;
      check_bool (name ^ "inconclusive, with a plan") true
        (st.Letdma.Solve.status = B.Feasible
         && r.Letdma.Solve.solution <> None))
    [ (300, 3); (100, 2) ]

(* Only round 1 writes checkpoints, so a conclusive round 1 leaves a
   stale file for a later round's interrupt to point at. Small seed 5
   OBJ-DEL at alpha 0.2 ends round 1 conclusively at node 65 on a
   non-contiguous incumbent: an interrupt at 100 nodes stops round 2
   with a plan and leaves no file behind. *)
let test_conclusive_round_removes_checkpoint () =
  let app =
    Workload.Generator.random ~seed:5 ~config:Workload.Generator.small_config ()
  in
  let groups, gamma =
    match Letdma.Experiment.prepare app ~alpha:0.2 with
    | Ok gg -> gg
    | Error e -> Alcotest.fail (Letdma.Experiment.error_to_string e)
  in
  let file = Filename.temp_file "resilience_rounds" ".json" in
  Sys.remove file;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
    (fun () ->
      let r =
        Letdma.Solve.solve ~time_limit_s:60.0 ~checkpoint_file:file
          ~checkpoint_every:8 ~interrupt_after_nodes:100
          Letdma.Formulation.Min_delay_ratio app groups ~gamma
      in
      let st = r.Letdma.Solve.stats in
      check_int "stopped in round 2" 2 st.Letdma.Solve.rounds;
      check_bool "no checkpoint left" false (Sys.file_exists file);
      check_bool "a certified plan" true
        (st.Letdma.Solve.status = B.Feasible
         && r.Letdma.Solve.solution <> None
         && Option.fold ~none:false ~some:Result.is_ok
              r.Letdma.Solve.certificate))

let () =
  Alcotest.run "resilience"
    [
      ( "checkpoint",
        [
          Alcotest.test_case "byte-identical round trip" `Quick
            test_roundtrip_byte_identity;
          Alcotest.test_case "63-bit basis fingerprints survive" `Quick
            test_large_bsig_roundtrip;
          Alcotest.test_case "atomic save / load" `Quick test_save_load_files;
          Alcotest.test_case "version-1 document still loads" `Quick
            test_version1_loads;
          Alcotest.test_case "strict validator rejections" `Quick
            test_validator_rejections;
          Alcotest.test_case "model fingerprint tracks every model field"
            `Quick test_fingerprint_tracks_the_model;
        ] );
      ( "bad-checkpoint",
        List.map
          (fun (name, edit) ->
            Alcotest.test_case ("load refuses " ^ name) `Quick
              (test_corrupt_refused_on_load name edit))
          corrupt_on_load
        @ List.map
            (fun (name, edit) ->
              Alcotest.test_case ("resume refuses " ^ name) `Quick
                (test_corrupt_refused_on_resume name edit))
            corrupt_on_resume
        @ [ QCheck_alcotest.to_alcotest prop_corrupt_checkpoint ] );
      ( "kill-and-resume",
        [
          Alcotest.test_case "trajectory identity at fixed points" `Quick
            test_resume_trajectory_identity;
          QCheck_alcotest.to_alcotest prop_kill_resume;
        ] );
      ( "iteration-limit",
        [
          Alcotest.test_case "cap is a limit, not a crash" `Quick
            test_iteration_limit_is_graceful;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "durable interrupt + resume (Letdma.Solve)" `Slow
            test_solve_durable_interrupt_resume;
          Alcotest.test_case "interrupt counts the nodes of the solve" `Slow
            test_interrupt_counts_the_solve;
          Alcotest.test_case "conclusive round drops checkpoint" `Quick
            test_conclusive_round_removes_checkpoint;
        ] );
    ]
