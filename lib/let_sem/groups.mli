(** Necessary LET communication sets (Algorithm 1 of the paper).

    [compute] derives, for an application, every instant within one
    hyperperiod at which LET communications are necessary, the set C(t) of
    communications at each such instant, and the distinct communication
    {e patterns}. Because all tasks are released synchronously, C(t) is
    always a subset of C(s0); the optimization problem is built at s0 and
    its constraints are replicated once per distinct pattern. *)

open Rt_model

type edge = private {
  producer : int;
  consumer : int;
  labels : Label.t list;
  pair_period : Time.t;
  w_set : Time.t list;
  r_set : Time.t list;
}

type pattern = private {
  comms : Comm.Set.t;
  occurrences : Time.t list;  (** within [0, H), sorted *)
  min_gap : Time.t;
      (** tightest distance from an occurrence to the next communication
          instant, cyclically — the bound Property 3 must meet *)
}

type t

val compute : App.t -> t
val app : t -> App.t
val edges : t -> edge list

(** All instants with communications within [0, H), sorted. *)
val instants : t -> Time.t list

(** Distinct communication patterns, ordered by first occurrence; the
    first pattern is C(s0). *)
val patterns : t -> pattern list

(** C(t) for an arbitrary absolute instant. [compute] derives C(t) once
    per instant of [0, H); any other time reads the set of its phase in
    [0, H). *)
val comms_at : t -> Time.t -> Comm.Set.t

(** G^W(t, tau): the LET writes [task] must issue at [time]. *)
val g_write : t -> time:Time.t -> task:int -> Comm.Set.t

(** G^R(t, tau): the LET reads [task] requires at [time]. *)
val g_read : t -> time:Time.t -> task:int -> Comm.Set.t

(** C(s0), the largest communication set. *)
val s0 : t -> Comm.Set.t

(** Checks the paper's invariant that C(t) is a subset of C(s0) for all t. *)
val check_s0_superset : t -> bool

val pp : Format.formatter -> t -> unit
