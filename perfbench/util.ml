(* Shared plumbing: the run's options, the metric table, peak memory and
   the checks that decide [correct]. *)

let now = Milp.Clock.now

(* Taken when the executable is initialised, i.e. at process start. *)
let process_start = now ()

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  letdma : string;  (** the letdma CLI executable *)
  out_dir : string;  (** where trace files and daemon logs go *)
}

(* Set-ups per run, each in a fresh process; setup_s is their median. *)
let setup_samples = 15

(* Metric values by name; units come from BENCHMARK.json. *)
type metrics = (string, float) Hashtbl.t

let set (m : metrics) k v = Hashtbl.replace m k v

let get (m : metrics) k = Hashtbl.find_opt m k

(* Mean of [xs], left unset when there is nothing to average. *)
let set_mean m k xs = if xs <> [] then set m k (Stats.mean xs)

(* Failed output checks; any entry makes [correct] false. *)
type checks = { mutable problems : string list }

let checks () = { problems = [] }

let fail c fmt = Printf.ksprintf (fun s -> c.problems <- s :: c.problems) fmt

let check c cond fmt =
  Printf.ksprintf (fun s -> if not cond then c.problems <- s :: c.problems) fmt

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb pid =
  let file = Printf.sprintf "/proc/%s/status" pid in
  match open_in file with
  | exception Sys_error _ -> Float.nan
  | ic ->
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    let rec go () =
      match input_line ic with
      | exception End_of_file -> Float.nan
      | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %f kB" (fun kb ->
            kb /. 1024.0)
      | _ -> go ()
    in
    go ()

(* [f ()] with its wall time in seconds. *)
let timed f =
  let t = now () in
  let r = f () in
  (r, now () -. t)

let pr fmt = Printf.printf (fmt ^^ "\n%!")
