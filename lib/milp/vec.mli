(** Minimal growable array (the stdlib gains [Dynarray] only in OCaml 5.2).

    A [dummy] element is required at creation to back the unused capacity. *)

type 'a t

val create : dummy:'a -> 'a t
val length : 'a t -> int

(** [push t x] appends [x] and returns its index. *)
val push : 'a t -> 'a -> int

val get : 'a t -> int -> 'a
val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
