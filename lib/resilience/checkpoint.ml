(* Versioned, deterministic serialization of solver checkpoints.

   Design constraints:
   - byte-identical round trip: [to_string] of [of_string] of a file is
     the file again. Floats print with %.17g (exact for doubles), the
     frontier is stored in canonical pop order and the basis pool sorted
     by node id (both already canonical in the in-memory snapshot), and
     no timestamps or other environment-dependent data are stored.
   - strict loading: the parser is [Obs.Check.parse_json], which rejects
     NaN/Infinity tokens outright; on top of that every field is
     structurally validated (unknown versions, wrong types, non-integer
     ids, non-finite objectives all fail with a message, never an
     exception).
   - one-sided infinities in branching overrides ([lo = -inf] on a down
     branch, [hi = +inf] on an up branch) and the root's [-inf] heap
     priority are the only legitimate non-finite values; they are
     encoded positionally as JSON [null].
   - version 1 files, written while branch-and-bound could import
     incumbents from parallel workers, carry two more state fields
     ([cutoff_foreign], [foreign_prunes]). The reader ignores them, so
     such a file resumes into the same search state. *)

let src = Logs.Src.create "resilience.ck" ~doc:"solver checkpoint files"

module Log = (val Logs.src_log src : Logs.LOG)

let version = 2

type t = {
  ck_fingerprint : string;
  ck_meta : (string * string) list;
  ck_state : Milp.Branch_bound.checkpoint;
}

(* FNV-1a (64-bit) over the model's LP-format text: any change to a
   bound, coefficient, sense or objective changes the fingerprint, while
   re-building the same model reproduces it. *)
let fingerprint (p : Milp.Problem.t) =
  let s = Milp.Problem.to_lp_string p in
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    s;
  Printf.sprintf "fnv1a64:%016Lx" !h

let make ?(meta = []) ~fingerprint state =
  { ck_fingerprint = fingerprint; ck_meta = meta; ck_state = state }

(* ---------- writing ---------- *)

(* The strict writer/reader primitives live in [Json] (shared with the
   service protocol); the aliases keep this file's vocabulary. *)
let add_float = Json.add_float
let add_json_string = Json.add_string
let add_list = Json.add_list
let add_array = Json.add_array
let add_int = Json.add_int

let add_basis b (basis : Milp.Simplex_core.Basis.t) =
  let open Milp.Simplex_core.Basis in
  Buffer.add_string b "{\"rows\":";
  add_array b
    (fun b e ->
      match e with
      | Bvar v -> add_json_string b ("v" ^ string_of_int v)
      | Bslack r -> add_json_string b ("s" ^ string_of_int r)
      | Bnone -> add_json_string b "-")
    basis.rows;
  Buffer.add_string b ",\"at_upper\":";
  add_array b add_int basis.at_upper;
  (* [bsig] spans the full 63-bit range: as a JSON number it would be
     read back through a float and silently lose low bits past 2^53,
     making every restored basis fail its fingerprint check — encode it
     as a string so the round trip is exact *)
  Buffer.add_string b (Printf.sprintf ",\"bm\":%d,\"bn\":%d,\"bsig\":\"%d\"}"
                         basis.bm basis.bn basis.bsig)

let add_best b best =
  match best with
  | None -> Buffer.add_string b "null"
  | Some (obj, x) ->
    Buffer.add_string b "{\"obj\":";
    add_float b obj;
    Buffer.add_string b ",\"x\":";
    add_array b add_float x;
    Buffer.add_char b '}'

let add_counters b (c : Milp.Simplex_core.counters) =
  Buffer.add_string b
    (Printf.sprintf
       "{\"pivots\":%d,\"dual_pivots\":%d,\"pricing_scanned\":%d,\
        \"pricing_refreshes\":%d,\"warm_hits\":%d,\"warm_misses\":%d,\
        \"dual_pivots_saved\":%d,\"basis_evictions\":%d}"
       c.Milp.Simplex_core.pivots c.Milp.Simplex_core.dual_pivots
       c.Milp.Simplex_core.pricing_scanned
       c.Milp.Simplex_core.pricing_refreshes c.Milp.Simplex_core.warm_hits
       c.Milp.Simplex_core.warm_misses c.Milp.Simplex_core.dual_pivots_saved
       c.Milp.Simplex_core.basis_evictions)

let add_ck_node b (n : Milp.Branch_bound.ck_node) =
  let open Milp.Branch_bound in
  Buffer.add_string b "{\"prio\":";
  if n.ck_prio = neg_infinity then Buffer.add_string b "null"
  else add_float b n.ck_prio;
  Buffer.add_string b (Printf.sprintf ",\"tie\":%d,\"depth\":%d,\"parent\":%d,\"overrides\":"
                         n.ck_node_tie n.ck_depth n.ck_parent);
  add_list b
    (fun b (j, lo, hi) ->
      Buffer.add_char b '[';
      add_int b j;
      Buffer.add_char b ',';
      if lo = neg_infinity then Buffer.add_string b "null" else add_float b lo;
      Buffer.add_char b ',';
      if hi = infinity then Buffer.add_string b "null" else add_float b hi;
      Buffer.add_char b ']')
    n.ck_overrides;
  Buffer.add_char b '}'

let add_best_first b (ck : Milp.Branch_bound.checkpoint) =
  let open Milp.Branch_bound in
  Buffer.add_string b
    (Printf.sprintf "{\"nodes\":%d,\"tie\":%d,\"simplex_solves\":%d,\"best\":"
       ck.ck_nodes ck.ck_tie ck.ck_simplex_solves);
  add_best b ck.ck_best;
  Buffer.add_string b ",\"cold_ref_pivots\":";
  (match ck.ck_cold_ref_pivots with
   | None -> Buffer.add_string b "null"
   | Some n -> add_int b n);
  Buffer.add_string b ",\"counters\":";
  add_counters b ck.ck_counters;
  Buffer.add_string b ",\"lp_time_s\":";
  add_float b ck.ck_lp_time_s;
  Buffer.add_string b ",\"frontier\":";
  add_list b add_ck_node ck.ck_frontier;
  Buffer.add_string b ",\"pool\":";
  add_list b
    (fun b (id, basis, refs, last) ->
      Buffer.add_char b '[';
      add_int b id;
      Buffer.add_char b ',';
      add_basis b basis;
      Buffer.add_string b (Printf.sprintf ",%d,%d]" refs last))
    ck.ck_pool;
  Buffer.add_string b (Printf.sprintf ",\"pool_tick\":%d}" ck.ck_pool_tick)

let to_string t =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf "{\"version\":%d,\"kind\":\"best_first\",\"fingerprint\":"
       version);
  add_json_string b t.ck_fingerprint;
  Buffer.add_string b ",\"meta\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      add_json_string b k;
      Buffer.add_char b ':';
      add_json_string b v)
    t.ck_meta;
  Buffer.add_string b "},\"state\":";
  add_best_first b t.ck_state;
  Buffer.add_string b "}\n";
  Buffer.contents b

(* ---------- reading ---------- *)

open Json

let invalid = Json.invalid
let as_int = Json.as_int

(* Exact 63-bit integers (basis fingerprints) travel as strings: a JSON
   number would be parsed into a float and lose low bits past 2^53. *)
let as_int_string = Json.as_int_string
let as_float = Json.as_float
let as_string = Json.as_string
let as_list = Json.as_list
let as_obj = Json.as_obj
let field = Json.field

let best_of_json what = function
  | Null -> None
  | O ms ->
    let obj = as_float (what ^ ".obj") (field what ms "obj") in
    let x =
      as_list (what ^ ".x") (field what ms "x")
      |> List.map (as_float (what ^ ".x[]"))
      |> Array.of_list
    in
    Some (obj, x)
  | _ -> invalid "%s: expected null or an object" what

let counters_of_json what j =
  let ms = as_obj what j in
  let f k = as_int (what ^ "." ^ k) (field what ms k) in
  let c = Milp.Simplex_core.fresh_counters () in
  c.Milp.Simplex_core.pivots <- f "pivots";
  c.Milp.Simplex_core.dual_pivots <- f "dual_pivots";
  c.Milp.Simplex_core.pricing_scanned <- f "pricing_scanned";
  c.Milp.Simplex_core.pricing_refreshes <- f "pricing_refreshes";
  c.Milp.Simplex_core.warm_hits <- f "warm_hits";
  c.Milp.Simplex_core.warm_misses <- f "warm_misses";
  c.Milp.Simplex_core.dual_pivots_saved <- f "dual_pivots_saved";
  c.Milp.Simplex_core.basis_evictions <- f "basis_evictions";
  c

(* A basis is restored into a tableau of its own [bm] rows and [bn]
   variables without bounds checks, so every entry must index within
   them. *)
let basis_of_json what j =
  let open Milp.Simplex_core.Basis in
  let ms = as_obj what j in
  let bm = as_int (what ^ ".bm") (field what ms "bm") in
  let bn = as_int (what ^ ".bn") (field what ms "bn") in
  let id kind bound s =
    match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
    | Some i when i >= 0 && i < bound -> kind i
    | _ -> invalid "%s.rows[]: bad entry %S (bm %d, bn %d)" what s bm bn
  in
  let rows =
    as_list (what ^ ".rows") (field what ms "rows")
    |> List.map (fun e ->
           match as_string (what ^ ".rows[]") e with
           | "-" -> Bnone
           | s when String.length s > 1 && s.[0] = 'v' ->
             id (fun v -> Bvar v) bn s
           | s when String.length s > 1 && s.[0] = 's' ->
             id (fun r -> Bslack r) bm s
           | s -> invalid "%s.rows[]: bad entry %S" what s)
    |> Array.of_list
  in
  if Array.length rows <> bm then
    invalid "%s.rows: %d entries, expected bm = %d" what (Array.length rows) bm;
  let at_upper =
    as_list (what ^ ".at_upper") (field what ms "at_upper")
    |> List.map (fun e ->
           match as_int (what ^ ".at_upper[]") e with
           | v when v >= 0 && v < bn -> v
           | v -> invalid "%s.at_upper[]: variable %d outside [0, %d)" what v bn)
    |> Array.of_list
  in
  { rows; at_upper; bm; bn;
    bsig = as_int_string (what ^ ".bsig") (field what ms "bsig") }

let ck_node_of_json what j =
  let ms = as_obj what j in
  let prio =
    match field what ms "prio" with
    | Null -> neg_infinity
    | v -> as_float (what ^ ".prio") v
  in
  let overrides =
    as_list (what ^ ".overrides") (field what ms "overrides")
    |> List.map (fun o ->
           match as_list (what ^ ".overrides[]") o with
           | [ j'; lo; hi ] ->
             let lo =
               match lo with
               | Null -> neg_infinity
               | v -> as_float (what ^ ".overrides[].lo") v
             and hi =
               match hi with
               | Null -> infinity
               | v -> as_float (what ^ ".overrides[].hi") v
             in
             (as_int (what ^ ".overrides[].var") j', lo, hi)
           | _ -> invalid "%s.overrides[]: expected [var, lo, hi]" what)
  in
  {
    Milp.Branch_bound.ck_prio = prio;
    ck_node_tie = as_int (what ^ ".tie") (field what ms "tie");
    ck_depth = as_int (what ^ ".depth") (field what ms "depth");
    ck_parent = as_int (what ^ ".parent") (field what ms "parent");
    ck_overrides = overrides;
  }

let best_first_of_json j =
  let what = "state" in
  let ms = as_obj what j in
  let fi k = field what ms k in
  {
    Milp.Branch_bound.ck_nodes = as_int "state.nodes" (fi "nodes");
    ck_tie = as_int "state.tie" (fi "tie");
    ck_simplex_solves = as_int "state.simplex_solves" (fi "simplex_solves");
    ck_best = best_of_json "state.best" (fi "best");
    ck_cold_ref_pivots =
      (match fi "cold_ref_pivots" with
       | Null -> None
       | v -> Some (as_int "state.cold_ref_pivots" v));
    ck_counters = counters_of_json "state.counters" (fi "counters");
    ck_lp_time_s = as_float "state.lp_time_s" (fi "lp_time_s");
    ck_frontier =
      as_list "state.frontier" (fi "frontier")
      |> List.map (ck_node_of_json "state.frontier[]");
    ck_pool =
      as_list "state.pool" (fi "pool")
      |> List.map (fun e ->
             match as_list "state.pool[]" e with
             | [ id; basis; refs; last ] ->
               ( as_int "state.pool[].id" id,
                 basis_of_json "state.pool[].basis" basis,
                 as_int "state.pool[].refs" refs,
                 as_int "state.pool[].last" last )
             | _ -> invalid "state.pool[]: expected [id, basis, refs, last]");
    ck_pool_tick = as_int "state.pool_tick" (fi "pool_tick");
  }

let of_string s =
  match parse s with
  | Error m -> Error ("checkpoint: " ^ m)
  | Ok j -> (
    try
      let ms = as_obj "checkpoint" j in
      let v = as_int "version" (field "checkpoint" ms "version") in
      if v <> 1 && v <> version then
        invalid "unsupported checkpoint version %d (this build reads 1 to %d)"
          v version;
      (match as_string "kind" (field "checkpoint" ms "kind") with
       | "best_first" -> ()
       | k -> invalid "unknown checkpoint kind %S" k);
      let fingerprint =
        as_string "fingerprint" (field "checkpoint" ms "fingerprint")
      in
      let meta =
        as_obj "meta" (field "checkpoint" ms "meta")
        |> List.map (fun (k, v) -> (k, as_string ("meta." ^ k) v))
      in
      let state = best_first_of_json (field "checkpoint" ms "state") in
      Ok
        {
          ck_fingerprint = fingerprint;
          ck_meta = meta;
          ck_state = state;
        }
    with Invalid m -> Error ("checkpoint: " ^ m))

(* ---------- files ---------- *)

let save path t =
  let data = to_string t in
  let tmp = path ^ ".tmp" in
  match
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc data;
        flush oc);
    Sys.rename tmp path
  with
  | () ->
    Obs.point ~cat:"checkpoint" "write"
      [ ("file", Obs.Str path); ("bytes", Obs.Int (String.length data)) ];
    Log.debug (fun f -> f "checkpoint written: %s (%d bytes)" path
                  (String.length data));
    Ok ()
  | exception Sys_error m -> Error ("checkpoint: " ^ m)

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error m -> Error ("checkpoint: " ^ m)
  | s -> (
    match of_string s with
    | Error _ as e -> e
    | Ok t ->
      Obs.point ~cat:"checkpoint" "restore"
        [ ("file", Obs.Str path); ("bytes", Obs.Int (String.length s)) ];
      Log.info (fun f -> f "checkpoint loaded: %s" path);
      Ok t)
