(** Shared strict-JSON machinery: one writer and one validating reader
    for every durable JSON surface in the tree.

    Historically each consumer ({!Checkpoint}, the service protocol,
    bench report writers) grew its own copy of the same helpers. They
    now live here, so the properties the test suites pin down hold
    everywhere at once:

    - {b writing} is deterministic: floats print with [%.17g] (exact for
      doubles), strings are escaped per RFC 8259 by
      {!Obs.add_json_string} (the escaper traces use too), and a
      non-finite float outside an explicitly sanctioned [null] slot raises
      [Invalid_argument] instead of emitting a NaN/Infinity token that
      no strict parser would read back;
    - {b reading} goes through {!Obs.Check.parse_json} — one strict JSON
      document, NaN/Infinity rejected, object member order preserved —
      and the accessors turn structural mismatches into {!Invalid} with
      a path-qualified message, never a raw exception. *)

(** Re-export of {!Obs.Check.json}: the parsed strict-JSON value. *)
type t = Obs.Check.json =
  | Null
  | B of bool
  | N of float
  | S of string
  | A of t list
  | O of (string * t) list

val parse : string -> (t, string) result
(** [parse s] is {!Obs.Check.parse_json}[ s]: one strict JSON document,
    no trailing garbage, no NaN/Infinity tokens. *)

(** {1 Writing} *)

val add_string : Buffer.t -> string -> unit
(** [add_string] is {!Obs.add_json_string}: append [s] as a quoted,
    escaped JSON string. *)

val add_float : Buffer.t -> float -> unit
(** Append a finite float as [%.17g] (round-trips doubles exactly).
    Raises [Invalid_argument] on NaN/Infinity — non-finite values must
    be encoded positionally as [null] by the caller, never as tokens. *)

val add_int : Buffer.t -> int -> unit

val add_list : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit
(** [add_list b add xs] appends [xs] as a JSON array using [add] per
    element. *)

val add_array : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a array -> unit

val escape : string -> string
(** [escape s] is the quoted escaped form of [s] as a string (what
    {!add_string} appends). *)

(** {1 Validating accessors}

    Each accessor takes a [what] path (["state.frontier[]"]) used in the
    error message. All raise {!Invalid} on mismatch; {!Checkpoint} and
    the service protocol catch it at their document boundary and return
    [Error]. *)

exception Invalid of string

val invalid : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** [invalid fmt ...] raises {!Invalid} with the formatted message. *)

val as_int : string -> t -> int
(** Accepts integral JSON numbers up to the exactly-representable
    double range. *)

val as_int_string : string -> t -> int
(** Exact 63-bit integers travel as strings (a JSON number would be
    parsed into a float and lose low bits past 2^53). *)

val as_float : string -> t -> float
val as_string : string -> t -> string
val as_bool : string -> t -> bool
val as_list : string -> t -> t list
val as_obj : string -> t -> (string * t) list

val field : string -> (string * t) list -> string -> t
(** [field what ms k] is member [k] of [ms]; {!Invalid} if missing. *)

val field_opt : (string * t) list -> string -> t option
