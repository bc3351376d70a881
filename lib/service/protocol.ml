(* NDJSON wire protocol: strict-JSON requests (shared parser with
   checkpoint files), deterministic rendered responses. *)

module Json = Resilience.Json

type solve = {
  workload : Workload.kind;
  seed : int;
  labels_per_edge : int;
  objective : Letdma.Formulation.objective;
  alpha : float;
  deadline_s : float;
  klass : Qos.klass;
}

type op = Solve of solve | Stats

type request = { id : string; op : op }

type error = { err_id : string; message : string }

(* ---------- parsing ---------- *)

(* Strictness: every member of the request object must be consumed by
   the op's schema. A misspelled field is an error, never a silently
   applied default. *)

let solve_keys =
  [
    "id"; "op"; "workload"; "seed"; "labels_per_edge"; "objective"; "alpha";
    "deadline_s"; "class";
  ]

let stats_keys = [ "id"; "op" ]

let check_keys ms allowed =
  List.iter
    (fun (k, _) ->
      if not (List.mem k allowed) then
        Json.invalid "request: unknown member %S" k)
    ms

(* A name from a (name, value) table; the error lists the names. *)
let parse_name what table s =
  match List.assoc_opt s table with
  | Some v -> v
  | None ->
    Json.invalid "%s: expected %s, got %S" what
      (String.concat "/" (List.map fst table))
      s

let parse_klass s =
  match Qos.klass_of_string s with
  | Some k -> k
  | None -> Json.invalid "class: expected gold/silver/bronze, got %S" s

let opt_field ms k ~default f =
  match Json.field_opt ms k with None -> default | Some v -> f v

let parse_solve ms =
  check_keys ms solve_keys;
  let workload =
    opt_field ms "workload" ~default:Workload.Waters (fun v ->
        parse_name "workload" Workload.kinds (Json.as_string "workload" v))
  in
  let seed = opt_field ms "seed" ~default:42 (Json.as_int "seed") in
  let labels_per_edge =
    opt_field ms "labels_per_edge" ~default:1 (fun v ->
        let n = Json.as_int "labels_per_edge" v in
        if n < 1 then Json.invalid "labels_per_edge: must be >= 1, got %d" n;
        n)
  in
  let objective =
    opt_field ms "objective" ~default:Letdma.Formulation.No_obj (fun v ->
        parse_name "objective" Letdma.Formulation.objective_flags
          (Json.as_string "objective" v))
  in
  let alpha =
    opt_field ms "alpha" ~default:0.2 (fun v ->
        let a = Json.as_float "alpha" v in
        if not (a > 0.0) then Json.invalid "alpha: must be positive, got %g" a;
        a)
  in
  let deadline_s =
    opt_field ms "deadline_s" ~default:60.0 (fun v ->
        let d = Json.as_float "deadline_s" v in
        if d < 0.0 then Json.invalid "deadline_s: must be >= 0, got %g" d;
        d)
  in
  let klass =
    opt_field ms "class" ~default:Qos.Silver (fun v ->
        parse_klass (Json.as_string "class" v))
  in
  Solve { workload; seed; labels_per_edge; objective; alpha; deadline_s; klass }

(* Best-effort id recovery from a line that failed validation, so the
   error response still correlates with the request that caused it. *)
let recover_id = function
  | Json.O ms -> (
    match Json.field_opt ms "id" with Some (Json.S s) -> s | _ -> "")
  | _ -> ""

let parse_request line =
  match Json.parse line with
  | Error m -> Error { err_id = ""; message = "parse: " ^ m }
  | Ok j -> (
    let err_id = recover_id j in
    try
      let ms = Json.as_obj "request" j in
      let id = Json.as_string "id" (Json.field "request" ms "id") in
      if id = "" then Json.invalid "id: must be non-empty";
      let op =
        match Json.field_opt ms "op" with
        | None -> Json.invalid "request: missing field \"op\""
        | Some v -> (
          match Json.as_string "op" v with
          | "solve" -> parse_solve ms
          | "stats" ->
            check_keys ms stats_keys;
            Stats
          | s -> Json.invalid "op: expected solve/stats, got %S" s)
      in
      Ok { id; op }
    with Json.Invalid m -> Error { err_id; message = m })

(* ---------- rendering ---------- *)

type value = I of int | F of float | S of string | B of bool

let render ~id ~status fields =
  let b = Buffer.create 256 in
  Buffer.add_string b "{\"id\":";
  Json.add_string b id;
  Buffer.add_string b ",\"status\":";
  Json.add_string b status;
  List.iter
    (fun (k, v) ->
      Buffer.add_char b ',';
      Json.add_string b k;
      Buffer.add_char b ':';
      match v with
      | I n -> Json.add_int b n
      | F f ->
        if Float.is_finite f then Json.add_float b f
        else Buffer.add_string b "null"
      | S s -> Json.add_string b s
      | B x -> Buffer.add_string b (if x then "true" else "false"))
    fields;
  Buffer.add_string b "}\n";
  Buffer.contents b

let error_line ~id msg = render ~id ~status:"error" [ ("error", S msg) ]
