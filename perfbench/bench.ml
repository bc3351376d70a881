(* Entry point: one run of one workload. Prints progress lines, then as
   its last stdout line one JSON object with every metric BENCHMARK.json
   lists for the mode (end_to_end untraced, per_layer traced). Exit 1
   after that line when an output check failed, 2 on bad arguments, 3
   when a listed metric was not measured. With [--setup-only] a batch
   workload only runs its set-up and prints "ready" (one set-up sample). *)

let usage =
  "bench.exe --workload NAME --seed N --seconds S --trace 0|1 --letdma EXE \
   [--spec BENCHMARK.json] [--out DIR] [--setup-only]"

let die code fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit code)
    fmt

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None in
  let trace = ref None and letdma = ref "" in
  let spec = ref "BENCHMARK.json" and out = ref ".perfbench" in
  let setup_only = ref false in
  let args =
    [
      ("--workload", Arg.Set_string workload, "workload name");
      ("--seed", Arg.Int (fun n -> seed := Some n), "workload seed");
      ("--seconds", Arg.Float (fun s -> seconds := Some s), "measuring time");
      ("--trace", Arg.Int (fun n -> trace := Some n), "0 or 1");
      ("--letdma", Arg.Set_string letdma, "letdma CLI executable");
      ("--spec", Arg.Set_string spec, "BENCHMARK.json");
      ("--out", Arg.Set_string out, "output directory");
      ("--setup-only", Arg.Set setup_only, "run a batch set-up only");
    ]
  in
  (try Arg.parse_argv Sys.argv args (fun a -> die 2 "unexpected %S" a) usage
   with Arg.Bad m | Arg.Help m -> die 2 "%s" m);
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some (0 | 1 as t) when seconds > 0.0 && !letdma <> ""
    ->
    ( {
        Util.workload = !workload;
        seed;
        seconds;
        trace = t = 1;
        letdma = !letdma;
        out_dir = !out;
      },
      !spec,
      !setup_only )
  | _ -> die 2 "%s" usage

(* (name, unit) of the metrics listed under [key] in BENCHMARK.json. *)
let listed spec key =
  let module J = Resilience.Json in
  let text =
    try In_channel.with_open_bin spec In_channel.input_all
    with Sys_error m -> die 2 "%s" m
  in
  match J.parse text with
  | Error m -> die 2 "%s: %s" spec m
  | Ok j -> (
    try
      J.as_list key (J.field spec (J.as_obj spec j) key)
      |> List.map (fun e ->
             let ms = J.as_obj key e in
             ( J.as_string "name" (J.field key ms "name"),
               J.as_string "unit" (J.field key ms "unit") ))
    with J.Invalid m -> die 2 "%s: %s" spec m)

(* Per-layer metrics, by name prefix, of layers a workload's traced pass
   does not call. Only these read 0; any other listed metric that was
   not measured fails the run. *)
let not_called = function
  | "service-mix" ->
    [ "heuristic."; "dma_sim."; "experiment."; "presolve.root_pivot_ratio";
      "workload.rejected_draws" ]
  | _ -> [ "protocol."; "cache."; "qos."; "engine."; "daemon."; "pool." ]

let run_trace_check (o : Util.opts) file =
  let pid =
    Unix.create_process o.Util.letdma
      [| o.Util.letdma; "trace-check"; file |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  match Unix.waitpid [] pid with _, Unix.WEXITED 0 -> true | _ -> false

let env_line (o : Util.opts) =
  let b = Buffer.create 256 in
  let str k v =
    Buffer.add_char b (if Buffer.length b = 0 then '{' else ',');
    Resilience.Json.add_string b k;
    Buffer.add_char b ':';
    Resilience.Json.add_string b v
  in
  str "workload" o.Util.workload;
  str "seed" (string_of_int o.Util.seed);
  str "nproc" (string_of_int (Domain.recommended_domain_count ()));
  str "ocaml" Sys.ocaml_version;
  str "commit" (Option.value ~default:"unknown" (Sys.getenv_opt "PERFBENCH_COMMIT"));
  str "ocamlrunparam"
    (Option.value ~default:"(unset)" (Sys.getenv_opt "OCAMLRUNPARAM"));
  Buffer.add_char b '}';
  Buffer.contents b

let () =
  let o, spec, setup_only = parse_args () in
  if setup_only then begin
    if o.Util.workload = "service-mix" then die 2 "--setup-only: batch workloads only";
    ignore (Batch.setup o);
    print_string "ready\n";
    exit 0
  end;
  let names = listed spec (if o.Util.trace then "per_layer" else "end_to_end") in
  (try Unix.mkdir o.Util.out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let m, c, attempted, failed, spans =
    match o.Util.workload with
    | "waters-table1" | "dse-batch" ->
      let m, c, attempted, spans = Batch.run o in
      (m, c, attempted, 0, spans)
    | "service-mix" -> Traffic.run o
    | w -> die 2 "unknown workload %S" w
  in
  (match spans with
   | None -> ()
   | Some sp ->
     let file =
       Filename.concat o.Util.out_dir
         (Printf.sprintf "trace-%s-%d.jsonl" o.Util.workload o.Util.seed)
     in
     Spans.write sp file;
     Util.check c (run_trace_check o file) "%s fails trace-check" file;
     List.iter
       (fun (n, s) -> Util.pr "self %-22s %10.3f ms" n (s *. 1e3))
       (Spans.self_by_name sp));
  List.iter
    (fun (k, v) -> Util.pr "measured %-28s %14.6g" k v)
    (List.sort compare (List.of_seq (Hashtbl.to_seq m)));
  Util.pr "env: %s" (env_line o);
  List.iter (fun p -> Util.pr "CHECK FAILED: %s" p) (List.rev c.Util.problems);
  let b = Buffer.create 1024 in
  List.iteri
    (fun i (name, unit) ->
      let v =
        match Util.get m name with
        | Some v -> v
        | None
          when o.Util.trace
               && List.exists
                    (fun p -> String.starts_with ~prefix:p name)
                    (not_called o.Util.workload) ->
          0.0
        | None -> die 3 "%s: %s was not measured" o.Util.workload name
      in
      if not (Float.is_finite v) then
        die 3 "%s: %s is not finite" o.Util.workload name;
      Util.pr "metric %-28s %14.6g %s" name v unit;
      if i > 0 then Buffer.add_char b ',';
      Resilience.Json.add_string b name;
      Printf.bprintf b ":{\"value\":%.17g,\"unit\":" v;
      Resilience.Json.add_string b unit;
      Buffer.add_char b '}')
    names;
  let correct = c.Util.problems = [] in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    correct attempted failed (Buffer.contents b);
  (* a failed output check fails the command too *)
  if not correct then exit 1
