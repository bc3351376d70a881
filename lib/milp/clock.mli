(** Monotonic wall-clock time for solver deadlines.

    Every time limit in the solver stack is an {e absolute} instant on
    this clock: [Clock.now () +. budget]. The clock is
    [CLOCK_MONOTONIC]-backed, so NTP adjustments or administrator
    wall-clock jumps can neither blow a deadline early nor extend it —
    and, because the monotonic epoch is machine-wide, one deadline value
    is coherent across every domain of a parallel solve.

    Instants are in seconds since an arbitrary (boot-time) epoch; they
    are only meaningful relative to each other and must never be mixed
    with [Unix.gettimeofday] values. *)

(** Current monotonic instant, in seconds. *)
val now : unit -> float

(** Seconds left until [deadline] (negative when expired). *)
val remaining : deadline:float -> float

(** [expired deadline] is [now () > deadline]. *)
val expired : float -> bool
