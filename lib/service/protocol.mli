(** Wire protocol of the solver service: newline-delimited strict JSON,
    one request per line in, one response per line out.

    Requests are parsed with the same strict machinery as checkpoint
    files ({!Resilience.Json} over {!Obs.Check.parse_json}): NaN and
    Infinity tokens are not JSON and are rejected, every field is
    structurally validated, and {e unknown members are errors} — a
    misspelled ["objective"] must fail loudly, not silently solve the
    default model. A malformed line never kills the daemon; it yields a
    structured error response (echoing the request ["id"] when one
    could be recovered from the broken line).

    Request schema (members beyond ["id"]/["op"] are per-op):

    {v
    {"id":"r1","op":"solve","workload":"small","seed":7,
     "objective":"dmat","alpha":0.2,"deadline_s":10,"class":"gold"}
    {"id":"r2","op":"stats"}
    v}

    [solve] defaults: workload ["waters"], seed [42],
    [labels_per_edge] 1, objective ["no-obj"], alpha [0.2],
    [deadline_s] 60, class ["silver"]. Any other op is an error
    naming the two. *)

type solve = {
  workload : Workload.kind;  (** named by {!Workload.kinds} *)
  seed : int;
  labels_per_edge : int;
  objective : Letdma.Formulation.objective;
  alpha : float;
  deadline_s : float;  (** relative budget; 0 = already expired *)
  klass : Qos.klass;
}

type op = Solve of solve | Stats

type request = { id : string; op : op }

(** Parse failure: [err_id] is the request id recovered from the broken
    line when possible (so the error response still correlates), [""]
    otherwise. *)
type error = { err_id : string; message : string }

val parse_request : string -> (request, error) result

(** {1 Responses}

    Responses are rendered, not round-tripped: a typed field list keeps
    float formatting ([%.17g]) and member order deterministic, so a
    cache hit can replay the stored solution fields byte-for-byte. *)

type value = I of int | F of float | S of string | B of bool

val render : id:string -> status:string -> (string * value) list -> string
(** [render ~id ~status fields] is
    [{"id":<id>,"status":<status>,<fields>}] followed by a newline.
    Non-finite floats render as [null] (the strict parsers reject
    NaN/Infinity tokens). *)

val error_line : id:string -> string -> string
(** [error_line ~id msg] is [render] with status ["error"] and an
    ["error"] field. *)
