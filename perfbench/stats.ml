(* Benchmark arithmetic: medians, the tail-percentile rule, latency from
   the scheduled send, the max-rate backlog rule and span self time.
   Kept free of I/O so the unit tests pin every rule. *)

let sorted xs = List.sort Float.compare xs

(* Median with the usual midpoint rule for an even count; nan when
   empty (the caller decides whether an empty class is an error). *)
let median xs =
  match sorted xs with
  | [] -> Float.nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean xs =
  match xs with
  | [] -> Float.nan
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Nearest-rank percentile of a sorted array (1-based rank ceil(p n)). *)
let rank ~n p = max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)))

let percentiles = [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]

(* The highest percentile that still has at least ten samples beyond
   it: [Some (p, value)], or [None] below 20 samples, where not even the
   median qualifies. Infinite samples (failed requests) sort last. *)
let tail xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  List.find_map
    (fun p ->
      let k = rank ~n p in
      if n - k >= 10 then Some (p, a.(k - 1)) else None)
    percentiles

(* The tail value, or the largest sample when too few samples exist for
   the rule (the sample count is reported next to it). *)
let tail_or_max xs =
  match tail xs with
  | Some (_, v) -> v
  | None -> List.fold_left Float.max Float.neg_infinity xs

(* Open-loop timing: a request is timed from the instant it was due,
   [t0 +. scheduled], not from when the generator managed to send it,
   so a stall also charges the requests queued behind it. *)
let latency ~t0 ~scheduled ~received = received -. (t0 +. scheduled)

let lateness ~t0 ~scheduled ~sent = sent -. (t0 +. scheduled)

(* Backlog at each due instant of a phase: requests due so far minus
   responses already received. [due] ascending; [done_at.(i)] is when
   request [i] was answered (infinity if never). *)
let backlog ~due ~done_at =
  Array.mapi
    (fun k t ->
      let answered =
        Array.fold_left (fun acc d -> if d <= t then acc + 1 else acc) 0 done_at
      in
      k + 1 - answered)
    due

(* A backlog grows when its mean over the last third of the phase
   exceeds the mean over the first third by more than one request. *)
let backlog_growing ~due ~done_at =
  let b = backlog ~due ~done_at in
  let n = Array.length b in
  if n < 3 then false
  else
    let third = n / 3 in
    let avg lo hi =
      let s = ref 0 in
      for i = lo to hi - 1 do
        s := !s + b.(i)
      done;
      float_of_int !s /. float_of_int (hi - lo)
    in
    avg (n - third) n > avg 0 third +. 1.0

type phase = {
  rate : float;  (** requests per second *)
  due : float array;  (** absolute due instants, ascending *)
  done_at : float array;  (** absolute answer instants *)
  ok : bool array;  (** answered with a plan *)
}

(* Latencies of one phase, failed requests counted as infinitely late so
   that they miss any limit. *)
let phase_latencies p =
  Array.to_list
    (Array.mapi
       (fun i d -> if p.ok.(i) then p.done_at.(i) -. d else Float.infinity)
       p.due)

let phase_meets ~limit p =
  Array.length p.due > 0
  && tail_or_max (phase_latencies p) <= limit
  && not (backlog_growing ~due:p.due ~done_at:p.done_at)

(* The highest fixed rate whose tail meets [limit] with no growing
   backlog; 0 when none does. *)
let max_rate ~limit phases =
  List.fold_left
    (fun acc p -> if phase_meets ~limit p then Float.max acc p.rate else acc)
    0.0 phases

type span = {
  id : int;
  parent : int option;
  start : float;
  stop : float;
}

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
          if a <= cb then (total, Some (ca, Float.max cb b))
          else (total +. (cb -. ca), Some (a, b)))
      (0.0, None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Self time: a span's duration minus the part of it that its direct
   children cover. *)
let self_time spans s =
  let children =
    List.filter_map
      (fun c -> if c.parent = Some s.id then Some (c.start, c.stop) else None)
      spans
  in
  s.stop -. s.start -. covered ~lo:s.start ~hi:s.stop children

(* Share of [part] in [whole], 0 when [whole] is 0. *)
let share part whole =
  if whole = 0 then 0.0 else float_of_int part /. float_of_int whole

let ratio a b = if b = 0.0 then 0.0 else a /. b
