(* Structured observability spine: typed spans, point events and counters
   timestamped on the monotonic Milp.Clock, buffered per domain
   (Domain.DLS — a domain only ever appends to its own buffer, so the hot
   path takes no lock) and drained to a JSONL sink. Disabled, every emit
   is one atomic load and a branch.

   Concurrency contract: buffers are flushed by their owning domain when
   full and by [stop] for every buffer ever registered. [stop] must not
   race live emitters — in this codebase worker domains only exist inside
   a Pool, whose shutdown joins them, so stopping from the main domain
   after the pool is shut down is safe. *)

type value = Int of int | Float of float | Str of string | Bool of bool

type fields = (string * value) list

type kind = Begin | End | Point | Counter

let kind_name = function
  | Begin -> "begin"
  | End -> "end"
  | Point -> "point"
  | Counter -> "counter"

type event = {
  ev_ts : float; (* absolute Milp.Clock.now, rebased on the sink's t0 *)
  ev_dom : int;
  ev_kind : kind;
  ev_cat : string;
  ev_name : string;
  ev_dur : float option; (* End events: span wall-clock duration *)
  ev_fields : fields;
}

(* --- JSON rendering --------------------------------------------------- *)

let add_json_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* Finite floats only ever reach the sink as JSON numbers; a non-finite
   value (which would not parse as JSON) is written as null. *)
let add_float b f =
  if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.9g" f)
  else Buffer.add_string b "null"

let add_value b = function
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> add_float b f
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Str s -> add_json_string b s

let render ~t0 b e =
  Buffer.add_string b "{\"ts\":";
  add_float b (e.ev_ts -. t0);
  Buffer.add_string b ",\"dom\":";
  Buffer.add_string b (string_of_int e.ev_dom);
  Buffer.add_string b ",\"kind\":\"";
  Buffer.add_string b (kind_name e.ev_kind);
  Buffer.add_string b "\",\"cat\":";
  add_json_string b e.ev_cat;
  Buffer.add_string b ",\"name\":";
  add_json_string b e.ev_name;
  (match e.ev_dur with
   | Some d ->
     Buffer.add_string b ",\"dur\":";
     add_float b d
   | None -> ());
  (match e.ev_fields with
   | [] -> ()
   | fs ->
     Buffer.add_string b ",\"args\":{";
     List.iteri
       (fun i (k, v) ->
         if i > 0 then Buffer.add_char b ',';
         add_json_string b k;
         Buffer.add_char b ':';
         add_value b v)
       fs;
     Buffer.add_char b '}');
  Buffer.add_string b "}\n"

(* --- metrics aggregation ---------------------------------------------- *)

type metric = {
  mutable m_count : int; (* events seen for this (cat, name) *)
  mutable m_total_s : float; (* summed span durations (End events) *)
  mutable m_last : int; (* last Counter value *)
}

type row = {
  cat : string;
  name : string;
  count : int;
  total_s : float;
  last : int;
}

(* --- sink ------------------------------------------------------------- *)

type sink = {
  s_out : out_channel option; (* None: metrics-only collection *)
  s_t0 : float;
  s_mutex : Mutex.t; (* serialises flushes and metric updates *)
  s_metrics : (string * string, metric) Hashtbl.t;
  mutable s_lines : int;
  mutable s_dropped : int; (* events lost to buffer-epoch mismatches *)
}

(* [on] is the single hot-path check; [sink] is only read under it. *)
let on = Atomic.make false

let sink : sink option ref = ref None

(* epoch: bumped by every [start] so a buffer filled under a previous
   sink can never leak stale events into the current one *)
let epoch = Atomic.make 0

(* --- per-domain buffers ----------------------------------------------- *)

let buffer_capacity = 4096

type buffer = {
  b_dom : int;
  mutable b_epoch : int;
  events : event array;
  mutable len : int;
}

let dummy_event =
  {
    ev_ts = 0.0;
    ev_dom = 0;
    ev_kind = Point;
    ev_cat = "";
    ev_name = "";
    ev_dur = None;
    ev_fields = [];
  }

(* registry of every buffer ever created, so [stop] can drain buffers of
   pool domains that have already been joined *)
let registry_mutex = Mutex.create ()

let registry : buffer list ref = ref []

let key =
  Domain.DLS.new_key (fun () ->
      let b =
        {
          b_dom = (Domain.self () :> int);
          b_epoch = Atomic.get epoch;
          events = Array.make buffer_capacity dummy_event;
          len = 0;
        }
      in
      Mutex.protect registry_mutex (fun () -> registry := b :: !registry);
      b)

let tally s e =
  let k = (e.ev_cat, e.ev_name) in
  let m =
    match Hashtbl.find_opt s.s_metrics k with
    | Some m -> m
    | None ->
      let m = { m_count = 0; m_total_s = 0.0; m_last = 0 } in
      Hashtbl.replace s.s_metrics k m;
      m
  in
  (* spans appear once in the counts (their Begin); the End contributes
     the duration *)
  (match e.ev_kind with
   | End -> (
     match e.ev_dur with Some d -> m.m_total_s <- m.m_total_s +. d | None -> ())
   | Begin | Point | Counter -> m.m_count <- m.m_count + 1);
  match (e.ev_kind, e.ev_fields) with
  | Counter, ("value", Int v) :: _ -> m.m_last <- v
  | _ -> ()

(* Drain [b] into the sink. Called by the owning domain (buffer full) or
   by [stop]/[start] from the draining domain. *)
let flush_buffer b =
  match !sink with
  | None -> b.len <- 0
  | Some s ->
    Mutex.protect s.s_mutex (fun () ->
        if b.b_epoch <> Atomic.get epoch then s.s_dropped <- s.s_dropped + b.len
        else begin
          let buf = Buffer.create 4096 in
          for i = 0 to b.len - 1 do
            let e = b.events.(i) in
            tally s e;
            render ~t0:s.s_t0 buf e
          done;
          (match s.s_out with
           | Some oc -> output_string oc (Buffer.contents buf)
           | None -> ());
          s.s_lines <- s.s_lines + b.len
        end);
    b.len <- 0

let emit kind ~cat ~name ?dur fields =
  if Atomic.get on then begin
    let b = Domain.DLS.get key in
    if b.b_epoch <> Atomic.get epoch then begin
      (* first event of this buffer under the current sink *)
      b.len <- 0;
      b.b_epoch <- Atomic.get epoch
    end;
    if b.len >= buffer_capacity then flush_buffer b;
    b.events.(b.len) <-
      {
        ev_ts = Milp.Clock.now ();
        ev_dom = b.b_dom;
        ev_kind = kind;
        ev_cat = cat;
        ev_name = name;
        ev_dur = dur;
        ev_fields = fields;
      };
    b.len <- b.len + 1
  end

(* --- public API ------------------------------------------------------- *)

let enabled () = Atomic.get on

let point ~cat name fields = emit Point ~cat ~name fields

let counter ~cat name v = emit Counter ~cat ~name [ ("value", Int v) ]

let span ~cat name ?(fields = []) f =
  if not (Atomic.get on) then f ()
  else begin
    let t0 = Milp.Clock.now () in
    emit Begin ~cat ~name fields;
    Fun.protect f ~finally:(fun () ->
        emit End ~cat ~name ~dur:(Milp.Clock.now () -. t0) fields)
  end

let start ?file () =
  if Atomic.get on then invalid_arg "Obs.start: already started";
  let out =
    match file with Some f -> Some (open_out f) | None -> None
  in
  Atomic.incr epoch;
  sink :=
    Some
      {
        s_out = out;
        s_t0 = Milp.Clock.now ();
        s_mutex = Mutex.create ();
        s_metrics = Hashtbl.create 64;
        s_lines = 0;
        s_dropped = 0;
      };
  Atomic.set on true

let stop () =
  if Atomic.get on then begin
    Atomic.set on false;
    let buffers = Mutex.protect registry_mutex (fun () -> !registry) in
    (* drain in ascending domain order so jobs=1 runs are byte-stable *)
    List.iter flush_buffer
      (List.sort (fun a b -> compare a.b_dom b.b_dom) buffers);
    match !sink with
    | None -> ()
    | Some s -> (
      match s.s_out with Some oc -> close_out oc | None -> ())
  end

let with_trace ?file f =
  start ?file ();
  Fun.protect f ~finally:stop

let lines_written () = match !sink with Some s -> s.s_lines | None -> 0

(* metrics remain readable after [stop] (until the next [start]) *)
let metrics () =
  match !sink with
  | None -> []
  | Some s ->
    Hashtbl.fold
      (fun (cat, name) m acc ->
        { cat; name; count = m.m_count; total_s = m.m_total_s; last = m.m_last }
        :: acc)
      s.s_metrics []
    |> List.sort (fun a b ->
           match compare a.cat b.cat with 0 -> compare a.name b.name | c -> c)

let pp_metrics ppf () =
  let rows = metrics () in
  let hr () = Fmt.pf ppf "%s@," (String.make 56 '-') in
  Fmt.pf ppf "@[<v>== EVENT METRICS ==@,";
  hr ();
  Fmt.pf ppf "%-12s %-20s %10s %10s@," "category" "event" "count" "time(s)";
  hr ();
  List.iter
    (fun r ->
      Fmt.pf ppf "%-12s %-20s %10d %10s@," r.cat r.name r.count
        (if r.total_s > 0.0 then Fmt.str "%.3f" r.total_s else "-"))
    rows;
  hr ();
  Fmt.pf ppf "@]"

(* --- solver hook taps ------------------------------------------------- *)

(* Observability taps over the branch-and-bound search hooks. Node
   events are sampled past the first [node_sample] nodes (long searches
   explore hundreds of thousands); the sampling is deterministic, so
   jobs=1 traces stay byte-stable. *)
module Solver_hooks = struct
  let node_sample = 64

  let node_sample_mask = 255 (* past the prefix, keep every 256th node *)

  let wrap (base : Milp.Branch_bound.hooks) =
    if not (Atomic.get on) then base
    else
      {
        base with
        Milp.Branch_bound.on_node =
          (fun ~node ~depth ~bound ~pivots ->
            base.Milp.Branch_bound.on_node ~node ~depth ~bound ~pivots;
            if node <= node_sample || node land node_sample_mask = 0 then
              point ~cat:"solver" "node"
                (("node", Int node) :: ("depth", Int depth)
                :: ("pivots", Int pivots)
                ::
                (match bound with
                 | Some b -> [ ("bound", Float b) ]
                 | None -> [])));
        on_incumbent =
          (fun ~obj x ->
            base.Milp.Branch_bound.on_incumbent ~obj x;
            point ~cat:"solver" "incumbent" [ ("obj", Float obj) ]);
        on_basis =
          (fun ~node ev ->
            base.Milp.Branch_bound.on_basis ~node ev;
            (* same deterministic sampling as node events: basis traffic
               is one-to-one with nodes on a warm search *)
            if node <= node_sample || node land node_sample_mask = 0 then
              point ~cat:"basis"
                (match ev with
                 | Milp.Branch_bound.Warm_hit -> "warm_hit"
                 | Milp.Branch_bound.Warm_miss -> "warm_miss"
                 | Milp.Branch_bound.Evict -> "evict")
                [ ("node", Int node) ]);
      }
end

(* --- JSONL validation ------------------------------------------------- *)

(* Minimal JSON parser, sufficient to validate the sink's own output and
   any other JSON value: the ci gate runs it over trace files and the
   BENCH_LAYERS.json ledger. Rejects NaN/Infinity tokens by construction
   (they are not JSON). *)
module Check = struct
  exception Bad of string

  let fail fmt = Fmt.kstr (fun m -> raise (Bad m)) fmt

  type cursor = { s : string; mutable pos : int }

  let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

  let advance c = c.pos <- c.pos + 1

  let rec skip_ws c =
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance c;
      skip_ws c
    | _ -> ()

  let expect c ch =
    match peek c with
    | Some x when x = ch -> advance c
    | Some x -> fail "expected %c at %d, got %c" ch c.pos x
    | None -> fail "expected %c at %d, got end of input" ch c.pos

  let literal c word =
    String.iter (fun ch -> expect c ch) word

  (* The four hex digits of a \u escape, the cursor just past the u. *)
  let hex4 c =
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match peek c with
        | Some ('0' .. '9' as h) -> Char.code h - 48
        | Some ('a' .. 'f' as h) -> Char.code h - 87
        | Some ('A' .. 'F' as h) -> Char.code h - 55
        | _ -> fail "bad unicode escape at %d" c.pos
      in
      v := (!v * 16) + d;
      advance c
    done;
    !v

  (* A \u escape decodes to the UTF-8 bytes of its code point; a code
     point above U+FFFF arrives as a high+low surrogate pair. Raw bytes
     are not validated as UTF-8: they pass through unchanged. *)
  let add_unicode_escape c b =
    let start = c.pos - 2 in
    let u = hex4 c in
    let u =
      if u >= 0xDC00 && u <= 0xDFFF then fail "lone surrogate at %d" start
      else if u >= 0xD800 && u <= 0xDBFF then begin
        if not (peek c = Some '\\' && c.pos + 1 < String.length c.s
                && c.s.[c.pos + 1] = 'u')
        then fail "lone surrogate at %d" start;
        advance c;
        advance c;
        let lo = hex4 c in
        if lo < 0xDC00 || lo > 0xDFFF then fail "lone surrogate at %d" start;
        0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00)
      end
      else u
    in
    Buffer.add_utf_8_uchar b (Uchar.of_int u)

  let parse_string c =
    expect c '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek c with
      | None -> fail "unterminated string"
      | Some '"' -> advance c
      | Some '\\' ->
        advance c;
        (match peek c with
         | Some (('"' | '\\' | '/') as ch) ->
           Buffer.add_char b ch;
           advance c
         | Some 'n' -> Buffer.add_char b '\n'; advance c
         | Some 't' -> Buffer.add_char b '\t'; advance c
         | Some 'r' -> Buffer.add_char b '\r'; advance c
         | Some 'b' -> Buffer.add_char b '\b'; advance c
         | Some 'f' -> Buffer.add_char b '\012'; advance c
         | Some 'u' ->
           advance c;
           add_unicode_escape c b
         | _ -> fail "bad escape at %d" c.pos);
        go ()
      | Some ch ->
        Buffer.add_char b ch;
        advance c;
        go ()
    in
    go ();
    Buffer.contents b

  let parse_number c =
    let start = c.pos in
    let consume () = advance c in
    (match peek c with Some '-' -> consume () | _ -> ());
    let digits () =
      let n0 = c.pos in
      let rec go () =
        match peek c with Some '0' .. '9' -> consume (); go () | _ -> ()
      in
      go ();
      if c.pos = n0 then fail "expected digit at %d" c.pos
    in
    digits ();
    (match peek c with
     | Some '.' ->
       consume ();
       digits ()
     | _ -> ());
    (match peek c with
     | Some ('e' | 'E') ->
       consume ();
       (match peek c with Some ('+' | '-') -> consume () | _ -> ());
       digits ()
     | _ -> ());
    match float_of_string_opt (String.sub c.s start (c.pos - start)) with
    | Some f when Float.is_finite f -> f
    | _ -> fail "bad number at %d" start

  type json =
    | Null
    | B of bool
    | N of float
    | S of string
    | A of json list
    | O of (string * json) list

  let rec parse_value c =
    skip_ws c;
    match peek c with
    | Some '{' ->
      advance c;
      skip_ws c;
      if peek c = Some '}' then begin advance c; O [] end
      else begin
        let rec members acc =
          skip_ws c;
          let k = parse_string c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' -> advance c; members ((k, v) :: acc)
          | Some '}' -> advance c; O (List.rev ((k, v) :: acc))
          | _ -> fail "expected , or } at %d" c.pos
        in
        members []
      end
    | Some '[' ->
      advance c;
      skip_ws c;
      if peek c = Some ']' then begin advance c; A [] end
      else begin
        let rec elements acc =
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' -> advance c; elements (v :: acc)
          | Some ']' -> advance c; A (List.rev (v :: acc))
          | _ -> fail "expected , or ] at %d" c.pos
        in
        elements []
      end
    | Some '"' -> S (parse_string c)
    | Some 't' -> literal c "true"; B true
    | Some 'f' -> literal c "false"; B false
    | Some 'n' -> literal c "null"; Null
    | Some _ -> N (parse_number c)
    | None -> fail "empty value"

  let parse_document s =
    let c = { s; pos = 0 } in
    let v = parse_value c in
    skip_ws c;
    if c.pos <> String.length s then fail "trailing garbage at %d" c.pos;
    v

  let kinds = [ "begin"; "end"; "point"; "counter" ]

  (* Validate one trace line: a JSON object carrying the required schema
     fields, with a numeric (hence finite) timestamp. *)
  let check_line line =
    match parse_document line with
    | exception Bad m -> Error m
    | O members ->
      let field k = List.assoc_opt k members in
      let ts =
        match field "ts" with
        | Some (N f) -> f
        | _ -> fail "missing numeric \"ts\""
      in
      let dom =
        match field "dom" with
        | Some (N f) when Float.is_integer f -> int_of_float f
        | _ -> fail "missing integer \"dom\""
      in
      (match field "kind" with
       | Some (S k) when List.mem k kinds -> ()
       | _ -> fail "missing or unknown \"kind\"");
      (match (field "cat", field "name") with
       | Some (S _), Some (S _) -> ()
       | _ -> fail "missing \"cat\"/\"name\"");
      Ok (ts, dom)
    | _ -> Error "trace line is not a JSON object"

  (* Validate a whole JSONL trace: every line parses, carries the schema
     fields, and timestamps are monotone per domain. Returns the number
     of lines. *)
  let trace_file path =
    let ic = open_in path in
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    let last_ts = Hashtbl.create 8 in
    let rec go n =
      match input_line ic with
      | exception End_of_file -> Ok n
      | line -> (
        match check_line line with
        | exception Bad m -> Error (Fmt.str "line %d: %s" (n + 1) m)
        | Error m -> Error (Fmt.str "line %d: %s" (n + 1) m)
        | Ok (ts, dom) ->
          let prev =
            match Hashtbl.find_opt last_ts dom with
            | Some t -> t
            | None -> neg_infinity
          in
          if ts < prev then
            Error
              (Fmt.str "line %d: timestamp %g < %g for domain %d" (n + 1) ts
                 prev dom)
          else begin
            Hashtbl.replace last_ts dom ts;
            go (n + 1)
          end)
    in
    go 0

  (* Validate that a file holds one well-formed JSON document (e.g. the
     BENCH_LAYERS.json ledger): parseable, hence free of NaN/Infinity
     tokens. *)
  let json_file path =
    let ic = open_in path in
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    match parse_document s with
    | exception Bad m -> Error m
    | _ -> Ok ()

  (* The strict parser as a library entry point (checkpoint loading in
     [Resilience] rides the same NaN/Infinity-rejecting discipline). *)
  let parse_json s =
    match parse_document s with v -> Ok v | exception Bad m -> Error m
end
