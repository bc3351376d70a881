(** Versioned, deterministic checkpoint files for interrupted solves.

    A checkpoint wraps {!Milp.Branch_bound}'s full
    frontier/incumbent/basis-pool snapshot together with a format version
    and a model fingerprint, and (de)serializes it to strict JSON. Files
    carry ["kind":"best_first"]; any other kind (such as the ["dfs"]
    files of the retired depth-first engine) is refused on load.

    Properties the test suite pins down:
    - {b deterministic}: [to_string] is a pure function of the snapshot
      (floats via [%.17g], canonical frontier/pool order, no
      timestamps), so write → load → write is byte-identical;
    - {b strict}: loading uses the NaN/Infinity-rejecting parser from
      {!Obs.Check} and validates every field; unknown versions, unknown
      kinds, type mismatches and truncated files all yield [Error];
    - {b compatible}: version 1 files still load. Their two extra state
      fields ([cutoff_foreign], [foreign_prunes]) date from parallel
      incumbent import, which no longer exists, and are ignored;
    - {b guarded}: {!fingerprint} ties a file to the exact model it was
      taken from, so a resume against a different model is refused by
      the caller (see [Letdma.Solve]).

    Saves are atomic (write to [path ^ ".tmp"], then rename) so an
    interrupt mid-write never corrupts the previous checkpoint. Save and
    load emit ["checkpoint"/"write"] and ["checkpoint"/"restore"] {!Obs}
    points. *)

val version : int
(** The file-format version {!to_string} writes (2). {!of_string} also
    reads version 1 and rejects any other. *)

type t = {
  ck_fingerprint : string;
  ck_meta : (string * string) list;
      (** free-form provenance (objective name, solver parameters…);
          order is preserved *)
  ck_state : Milp.Branch_bound.checkpoint;
      (** trajectory-identical resume state (see {!Milp.Branch_bound.solve}) *)
}

val fingerprint : Milp.Problem.t -> string
(** FNV-1a hash of the model's LP-format text: stable across runs,
    changed by any bound/coefficient/objective edit. *)

val make :
  ?meta:(string * string) list ->
  fingerprint:string ->
  Milp.Branch_bound.checkpoint ->
  t
(** Wrap a snapshot at the current {!version}. *)

val to_string : t -> string
(** One strict-JSON document, newline-terminated. Raises
    [Invalid_argument] if a float outside the sanctioned null slots is
    non-finite (cannot happen for snapshots produced by the solvers). *)

val of_string : string -> (t, string) result
(** Parse and validate. Never raises. *)

val save : string -> t -> (unit, string) result
(** Atomic write: the target file either keeps its previous content or
    holds the complete new checkpoint. *)

val load : string -> (t, string) result
