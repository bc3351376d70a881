(* Black-box tests for bin/letdma_cli: structured rejection of invalid
   --jobs values and of unreadable checkpoints (exit code 1 + one-line
   error on stderr), as opposed to cmdliner's own parse failures (exit
   124). Runs the built executable; cwd during [dune runtest] is
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

let test_jobs_zero () = check_rejects "solve --jobs 0"
(* [=] syntax: a bare [-3] would parse as an unknown option flag *)
let test_jobs_negative () = check_rejects "pipeline --jobs=-3"

let test_jobs_ok () =
  (* a valid --jobs must get past validation: a tiny solve succeeds *)
  let code, out = run "solve --jobs 2 --time-limit 30" in
  Alcotest.(check int) "solve --jobs 2 exits 0" 0 code;
  Alcotest.(check bool)
    "no jobs complaint" false
    (contains ~needle:"jobs must be" out)

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

let () =
  Alcotest.run "cli"
    [
      ( "jobs-validation",
        [
          Alcotest.test_case "--jobs 0 rejected" `Quick test_jobs_zero;
          Alcotest.test_case "--jobs -3 rejected" `Quick test_jobs_negative;
          Alcotest.test_case "--jobs 2 accepted" `Slow test_jobs_ok;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "resume refuses a dfs checkpoint" `Quick
            test_resume_dfs_checkpoint;
        ] );
    ]
