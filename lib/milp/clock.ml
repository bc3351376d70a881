(* CLOCK_MONOTONIC via a one-line C stub (mtime is not vendored; the
   stdlib only exposes the adjustable wall clock). *)

external now : unit -> float = "letdma_clock_monotonic_s"

let remaining ~deadline = deadline -. now ()
let expired deadline = now () > deadline
