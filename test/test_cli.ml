(* Black-box tests for bin/letdma_cli: structured rejection of invalid
   serve --jobs values and of unreadable checkpoints (exit code 1 +
   one-line error on stderr), as opposed to cmdliner's own parse failures
   (exit 124), and the solve flags honoured on both solve paths. Runs the
   built executable; cwd during [dune runtest] is
   [_build/default/test]. *)

let exe = Filename.concat (Filename.concat ".." "bin") "letdma_cli.exe"

let run args =
  let out = Filename.temp_file "letdma_cli" ".err" in
  let cmd =
    Printf.sprintf "%s %s >%s 2>&1" (Filename.quote exe) args
      (Filename.quote out)
  in
  let code = Sys.command cmd in
  let ic = open_in out in
  let n = in_channel_length ic in
  let captured = really_input_string ic n in
  close_in ic;
  Sys.remove out;
  (code, captured)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let check_rejects cmd_line =
  let code, out = run cmd_line in
  Alcotest.(check int) ("exit code of: " ^ cmd_line) 1 code;
  Alcotest.(check bool)
    ("structured error on stderr of: " ^ cmd_line)
    true
    (contains ~needle:"jobs must be >= 1" out)

(* serve reads requests from stdin: give it an empty one so a run that
   got past validation drains and exits instead of waiting *)
let test_jobs_zero () = check_rejects "serve --jobs 0 </dev/null"
(* [=] syntax: a bare [-3] would parse as an unknown option flag *)
let test_jobs_negative () = check_rejects "serve --jobs=-3 </dev/null"

let test_jobs_ok () =
  (* a valid --jobs must get past validation: the pool starts, drains
     the empty input and shuts down *)
  let code, out = run "serve --jobs 2 </dev/null" in
  Alcotest.(check int) "serve --jobs 2 exits 0" 0 code;
  Alcotest.(check bool)
    "no jobs complaint" false
    (contains ~needle:"jobs must be" out)

(* cmdliner refuses a flag the command does not have: exit 124 and the
   flag named in the message. *)
let check_unknown flag cmd_lines =
  List.iter
    (fun cmd_line ->
      let code, out = run cmd_line in
      Alcotest.(check int) ("exit code of: " ^ cmd_line) 124 code;
      Alcotest.(check bool)
        ("unknown option named by: " ^ cmd_line)
        true
        (contains ~needle:(Printf.sprintf "unknown option '%s'" flag) out))
    cmd_lines

(* Each MILP solve is one sequential search: solve and pipeline have no
   --jobs. *)
let test_jobs_unknown () =
  check_unknown "--jobs" [ "solve --jobs 1"; "pipeline --jobs 2" ]

(* Each ladder runs the MILP once: solve, resume and pipeline have no
   --retries and no --backoff. *)
let test_retries_unknown () =
  check_unknown "--retries"
    [ "solve --retries 1"; "resume --retries 1"; "pipeline --retries 1" ];
  check_unknown "--backoff"
    [ "solve --backoff 0.1"; "resume --backoff 0.1"; "pipeline --backoff 0.1" ]

(* No worker domain dies before shutdown, so serve has no crash-retry
   budget. *)
let test_retry_on_crash_unknown () =
  check_unknown "--retry-on-crash" [ "serve --retry-on-crash 1 </dev/null" ]

(* A checkpoint as the retired depth-first engine wrote it: [resume] must
   refuse it by kind, before building any model. *)
let test_resume_dfs_checkpoint () =
  let file = Filename.temp_file "letdma_cli_dfs" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let oc = open_out_bin file in
      output_string oc
        "{\"version\":1,\"kind\":\"dfs\",\
         \"fingerprint\":\"fnv1a64:9b2ae0b73dfd3492\",\
         \"meta\":{\"objective\":\"dmat\",\"engine\":\"dfs\"},\
         \"state\":{\"nodes\":3,\"best\":{\"obj\":9,\"x\":[1,0,1]}}}\n";
      close_out oc;
      let code, out =
        run ("resume --workload small --seed 5 --checkpoint "
             ^ Filename.quote file)
      in
      Alcotest.(check int) "resume exits 1" 1 code;
      Alcotest.(check bool)
        "names the unknown kind" true
        (contains ~needle:"checkpoint: unknown checkpoint kind \"dfs\"" out))

(* --workload and --seed pick the app without forcing the durable path:
   the heuristic answers seed 5 of the small generator and --stats says
   so. *)
let test_solve_workload_heuristic () =
  let code, out = run "solve --workload small --seed 5 --heuristic --stats" in
  Alcotest.(check int) "heuristic solve exits 0" 0 code;
  Alcotest.(check bool)
    "stats of the heuristic solve" true
    (contains ~needle:"solver stats: none (heuristic solve)" out)

(* The durable path starts from the MIP start too: OBJ-DMAT on this draw
   takes 1895 nodes to prove, so 3 nodes end on the start, certified. *)
let test_solve_durable_stats () =
  let code, out =
    run "solve --workload small --seed 8 --objective dmat --interrupt-after 3 \
         --stats"
  in
  Alcotest.(check int) "the start after 3 nodes: exit 0" 0 code;
  Alcotest.(check bool)
    "greppable node count" true
    (contains ~needle:"nodes: 3\n" out);
  Alcotest.(check bool)
    "stats of the durable solve" true
    (contains ~needle:"solver stats: status=feasible(limit)" out)

(* OBJ-DMAT's structural floor (classes - 1) already equals the warm
   start's value on this draw: the solve is proved before any LP, and
   --stats shows the proven bound next to the gap. *)
let test_solve_stats_bound () =
  let code, out =
    run "solve --workload small --seed 939499556 --alpha 0.3 \
         --objective dmat --time-limit 30 --stats"
  in
  Alcotest.(check int) "solve exits 0" 0 code;
  Alcotest.(check bool)
    "proved without a node" true
    (contains ~needle:"solver stats: status=optimal " out
     && contains ~needle:" nodes=0 " out);
  Alcotest.(check bool)
    "proven bound printed" true
    (contains ~needle:" gap=0.0% bound=1\n" out)

let test_solve_durable_refuses_heuristic () =
  let code, out = run "solve --heuristic --interrupt-after 3" in
  Alcotest.(check int) "refused: exit 1" 1 code;
  Alcotest.(check bool)
    "one-line reason" true
    (contains ~needle:"letdma: error: --heuristic cannot be combined" out)

let () =
  Alcotest.run "cli"
    [
      ( "jobs-validation",
        [
          Alcotest.test_case "--jobs 0 rejected" `Quick test_jobs_zero;
          Alcotest.test_case "--jobs -3 rejected" `Quick test_jobs_negative;
          Alcotest.test_case "--jobs 2 accepted" `Slow test_jobs_ok;
          Alcotest.test_case "solve and pipeline have no --jobs" `Quick
            test_jobs_unknown;
        ] );
      ( "removed-flags",
        [
          Alcotest.test_case "solve, resume and pipeline have no --retries"
            `Quick test_retries_unknown;
          Alcotest.test_case "serve has no --retry-on-crash" `Quick
            test_retry_on_crash_unknown;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "resume refuses a dfs checkpoint" `Quick
            test_resume_dfs_checkpoint;
        ] );
      ( "solve-flags",
        [
          Alcotest.test_case "--workload with --heuristic --stats" `Quick
            test_solve_workload_heuristic;
          Alcotest.test_case "durable path prints --stats" `Quick
            test_solve_durable_stats;
          Alcotest.test_case "durable path refuses --heuristic" `Quick
            test_solve_durable_refuses_heuristic;
          Alcotest.test_case "--stats prints the proven bound" `Quick
            test_solve_stats_bound;
        ] );
    ]
