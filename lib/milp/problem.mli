(** Mutable MILP model builder: variables, linear constraints, an objective,
    plus big-M implication helpers, validation, solution checking, and
    CPLEX LP format export.

    Variables are dense integer ids starting at 0, as produced by
    {!add_var} and friends. Every variable is bounded below: the lower
    bound defaults to 0, the LP-format convention, and a lower bound of
    [neg_infinity] is rejected. *)

type var_kind = Continuous | Integer | Binary
type sense = Le | Ge | Eq
type dir = Minimize | Maximize

type constr = private {
  c_name : string;
  c_id : int;
      (** stable origin id: the row's index in the model it was first added
          to. Presolve copies it onto the reduced model's rows, so anything
          keyed on it — notably the simplex anti-degeneracy perturbation —
          is invariant under row elimination. *)
  c_expr : Linexpr.t;  (** constant part folded into [c_rhs] *)
  c_sense : sense;
  c_rhs : float;
}

type t

(** [create ?big_m ()] makes an empty model. [big_m] (default [1e6]) is the
    default constant used by the implication helpers. *)
val create : ?big_m:float -> unit -> t

val big_m : t -> float
val num_vars : t -> int
val num_constrs : t -> int

(** [add_var ?name ?lo ?hi t kind] returns the new variable's id. [lo]
    defaults to [0.], [hi] to [infinity]. Binary variables are clamped to
    [0,1]. Raises [Invalid_argument] when [lo] is [neg_infinity] or
    [lo > hi]. *)
val add_var : ?name:string -> ?lo:float -> ?hi:float -> t -> var_kind -> int

val binary : ?name:string -> t -> int
val continuous : ?name:string -> ?lo:float -> ?hi:float -> t -> int
val integer : ?name:string -> ?lo:float -> ?hi:float -> t -> int

val var_name : t -> int -> string
val var_bounds : t -> int -> float * float

(** Raises [Invalid_argument] when [lo] is [neg_infinity] or the new
    bounds cross. *)
val set_bounds : ?lo:float -> ?hi:float -> t -> int -> unit

(** [add_constr ?name ?id t e sense rhs] adds the constraint [e sense rhs]
    (any constant term of [e] is moved to the right-hand side) and returns
    its index. [id] overrides the row's stable origin id ({!constr.c_id},
    default: the new index) — used by presolve to keep reduced rows keyed
    like the originals. *)
val add_constr : ?name:string -> ?id:int -> t -> Linexpr.t -> sense -> float -> int

val set_objective : t -> dir -> Linexpr.t -> unit
val objective : t -> dir * Linexpr.t
val iter_constrs : (constr -> unit) -> t -> unit
val iter_vars : (int -> var_kind -> float * float -> unit) -> t -> unit

(** {1 Implication helpers}

    Both take a binary variable id. *)

(** [add_implies_le t b e rhs] adds [b = 1 => e <= rhs] via big-M. *)
val add_implies_le : ?name:string -> ?m:float -> t -> int -> Linexpr.t -> float -> unit

(** [add_implies_ge t b e rhs] adds [b = 1 => e >= rhs] via big-M. *)
val add_implies_ge : ?name:string -> ?m:float -> t -> int -> Linexpr.t -> float -> unit

(** {1 Validation and export} *)

type issue =
  | Empty_constraint of string
  | Unbounded_integer of string
  | Bad_bounds of string

val validate : t -> issue list
val pp_issue : Format.formatter -> issue -> unit

(** CPLEX LP file format, for external cross-checking. It is also the
    canonical text [Resilience.Checkpoint.fingerprint] hashes. *)
val to_lp_string : t -> string

(** {1 Residual checking}

    Independent re-verification of solver output: every bound, integrality
    requirement and constraint row is re-evaluated from the model data. *)

type residual_kind = Bad_length | Bound | Integrality | Row

type residual = {
  res_kind : residual_kind;
  res_name : string;  (** variable or constraint name *)
  res_amount : float;  (** violation magnitude beyond the tolerance *)
}

(** [residuals ?eps t x] returns every violated bound / integrality
    requirement / constraint of assignment [x], with magnitudes (empty
    list = feasible within [eps], default [1e-6]). A wrong-length
    assignment yields a single [Bad_length] residual — it never raises. *)
val residuals : ?eps:float -> t -> float array -> residual list

val pp_residual : Format.formatter -> residual -> unit

(** [check_solution ?eps t x] returns the names of violated constraints /
    bounds / integrality requirements (empty list = feasible). Raises
    [Invalid_argument] on a wrong-length assignment; {!residuals} is the
    non-raising structured form. *)
val check_solution : ?eps:float -> t -> float array -> string list
