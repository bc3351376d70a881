(* In-memory span recorder for the traced pass. Spans wrap calls into the
   program's public functions from the benchmark's own code; nothing is
   written until the end, and then in the Obs JSONL schema so that
   `letdma trace-check` validates the file. *)

type event = {
  ts : float;
  begin_ : bool;
  sid : int;
  name : string;
  op : string;
  parent : int option;
  dur : float;
}

type t = {
  t0 : float;
  mutable next : int;
  mutable stack : int list;
  mutable events : event list; (* newest first *)
  mutable closed : (string * Stats.span) list; (* name, span *)
}

let create () =
  { t0 = Milp.Clock.now (); next = 0; stack = []; events = []; closed = [] }

(* [span t ~op name f] runs [f] inside a span named [name]; [op] is the
   config or request id the span belongs to. *)
let span t ~op name f =
  let sid = t.next in
  t.next <- sid + 1;
  let parent = match t.stack with p :: _ -> Some p | [] -> None in
  t.stack <- sid :: t.stack;
  let start = Milp.Clock.now () in
  t.events <-
    { ts = start; begin_ = true; sid; name; op; parent; dur = 0.0 } :: t.events;
  Fun.protect f ~finally:(fun () ->
      let stop = Milp.Clock.now () in
      t.stack <- List.tl t.stack;
      t.events <-
        { ts = stop; begin_ = false; sid; name; op; parent; dur = stop -. start }
        :: t.events;
      t.closed <- (name, { Stats.id = sid; parent; start; stop }) :: t.closed)

let spans t = List.rev t.closed

(* Durations of every span called [name], in seconds. *)
let durations t name =
  List.filter_map
    (fun (n, s) -> if n = name then Some (s.Stats.stop -. s.Stats.start) else None)
    (spans t)

let total t name = List.fold_left ( +. ) 0.0 (durations t name)

(* Summed self time per span name. *)
let self_by_name t =
  let all = List.map snd (spans t) in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (n, s) ->
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl n) in
      Hashtbl.replace tbl n (prev +. Stats.self_time all s))
    (spans t);
  List.sort compare (List.of_seq (Hashtbl.to_seq tbl))

let write t file =
  let oc = open_out file in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  List.iter
    (fun e ->
      let b = Buffer.create 160 in
      Printf.bprintf b "{\"ts\":%.9f,\"dom\":0,\"kind\":\"%s\",\"cat\":\"perfbench\",\"name\":"
        (e.ts -. t.t0) (if e.begin_ then "begin" else "end");
      Resilience.Json.add_string b e.name;
      if not e.begin_ then Printf.bprintf b ",\"dur\":%.9f" e.dur;
      Printf.bprintf b ",\"args\":{\"id\":%d,\"parent\":%s,\"op\":" e.sid
        (match e.parent with Some p -> string_of_int p | None -> "null");
      Resilience.Json.add_string b e.op;
      Buffer.add_string b "}}\n";
      output_string oc (Buffer.contents b))
    (List.rev t.events)
