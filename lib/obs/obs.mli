(** Structured observability spine.

    Typed spans and point events, timestamped on the monotonic
    {!Milp.Clock}, buffered per domain (the hot path takes no lock) and
    drained to a JSONL sink — one line per event:

    {v
    {"ts":0.0012,"dom":0,"kind":"begin","cat":"solver","name":"node",
     "args":{"node":17,"depth":3}}
    v}

    Fields: ["ts"] seconds since {!start} (monotonic, per-domain ordered),
    ["dom"] emitting domain id, ["kind"] one of
    ["begin"]/["end"]/["point"], ["cat"] subsystem category,
    ["name"] event name, ["dur"] span duration on [end] events, ["args"]
    optional event payload. Non-finite floats serialize as [null], so a
    sink file never contains NaN/Infinity tokens.

    When disabled (the default), every emit is a single atomic load and a
    branch. [stop] must only be called when no other domain is emitting;
    in this codebase worker domains live inside a [Pool], whose
    [shutdown] joins them. *)

type value = Int of int | Float of float | Str of string | Bool of bool

type fields = (string * value) list

(** {1 Lifecycle} *)

val enabled : unit -> bool
(** [enabled ()] is [true] between {!start} and {!stop}. Cheap: one
    atomic load. *)

val start : ?file:string -> unit -> unit
(** [start ?file ()] enables event collection. With [file], events are
    appended to it as JSONL; without, only in-memory {!metrics} are
    aggregated. Raises [Invalid_argument] if already started. *)

val stop : unit -> unit
(** Disable collection, drain every per-domain buffer to the sink and
    close it. Metrics remain readable until the next {!start}. No-op if
    not started. *)

val with_trace : ?file:string -> (unit -> 'a) -> 'a
(** [with_trace ?file f] runs [f] between {!start} and {!stop}. *)

val lines_written : unit -> int
(** Events drained to the current sink so far. *)

(** {1 Emission} *)

val point : cat:string -> string -> fields -> unit
(** [point ~cat name fields] records an instantaneous event. *)

val span : cat:string -> string -> ?fields:fields -> (unit -> 'a) -> 'a
(** [span ~cat name ?fields f] wraps [f] in a [begin]/[end] event pair;
    the [end] event carries the wall-clock duration (and is emitted even
    if [f] raises). When disabled this is exactly [f ()]. *)

(** {1 Metrics} *)

type row = {
  cat : string;
  name : string;
  count : int;  (** events for this (cat, name); spans counted once *)
  total_s : float;  (** summed span durations from [end] events *)
}

val metrics : unit -> row list
(** Aggregated per-(cat, name) rows, sorted; includes only events already
    drained to the sink (call after {!stop} for complete totals). *)

val pp_metrics : Format.formatter -> unit -> unit
(** Render {!metrics} as an aligned summary table. *)

(** {1 Solver taps} *)

module Solver_hooks : sig
  val wrap : Milp.Branch_bound.hooks -> Milp.Branch_bound.hooks
  (** [wrap hooks] layers observability over search hooks:
      each explored node emits a (deterministically sampled — first 64,
      then every 256th) ["solver"/"node"] point with depth, LP bound and
      pivot cost; each incumbent improvement emits
      ["solver"/"incumbent"]; warm-start bookkeeping emits
      ["basis"/"warm_hit"], ["basis"/"warm_miss"] and ["basis"/"evict"]
      points under the same node sampling. The underlying callbacks
      still run first. Identity when tracing is disabled. *)
end

(** {1 JSON} *)

val add_json_string : Buffer.t -> string -> unit
(** [add_json_string b s] appends [s] as a quoted JSON string: double
    quote, backslash, newline, tab and carriage return as two-character
    escapes, other bytes below 0x20 as [\u00XX], every other byte
    unchanged. {!Check.parse_json} reads it back as [s]. This is the one
    string escaper: traces use it here, durable documents through
    [Resilience.Json.add_string]. *)

(** {1 Validation} *)

module Check : sig
  (** Parsed strict-JSON value: exactly the JSON data model — numbers
      are finite floats (the parser rejects NaN/Infinity tokens, which
      are not JSON), and strings hold bytes, with each [\uXXXX] escape
      (or surrogate pair) decoded to UTF-8. *)
  type json =
    | Null
    | B of bool
    | N of float
    | S of string
    | A of json list
    | O of (string * json) list

  val parse_json : string -> (json, string) result
  (** [parse_json s] parses [s] as one strict JSON document (no trailing
      garbage, no NaN/Infinity, no lone surrogate escape, objects keep
      member order). This is the same parser behind
      {!trace_file}/{!json_file}, exposed for checkpoint loading in
      [Resilience]. *)

  val trace_file : string -> (int, string) result
  (** [trace_file path] validates a JSONL trace: every line is a JSON
      object with numeric ["ts"], integer ["dom"], a known ["kind"] and
      string ["cat"]/["name"]; timestamps are monotone per domain; no
      NaN/Infinity tokens (they are not JSON). Returns the line count. *)

  val json_file : string -> (unit, string) result
  (** [json_file path] checks that [path] holds one well-formed JSON
      document (hence free of NaN/Infinity tokens). *)
end
