open Rt_model

(* Algorithm 1 of the paper: the sets of necessary LET communications
   G^W(t, tau_i) / G^R(t, tau_i), the per-instant unions C(t), and the
   distinct communication patterns over one hyperperiod (used to state
   Constraints 6 and 10 once per pattern instead of once per instant). *)

type edge = {
  producer : int;
  consumer : int;
  labels : Label.t list;
  pair_period : Time.t; (* lcm of the two periods *)
  w_set : Time.t list; (* necessary write instants within [0, pair_period) *)
  r_set : Time.t list; (* necessary read instants within [0, pair_period) *)
}

type pattern = {
  comms : Comm.Set.t;
  occurrences : Time.t list; (* within [0, H), sorted *)
  min_gap : Time.t; (* tightest distance to the next communication instant *)
}

module Tmap = Map.Make (Int)

type t = {
  app : App.t;
  edges : edge list;
  hyperperiod : Time.t;
  by_instant : Comm.Set.t Tmap.t; (* C(t) at each of [instants] *)
  instants : Time.t list; (* instants with communications within [0, H) *)
  patterns : pattern list;
}

let app t = t.app
let edges t = t.edges
let instants t = t.instants
let patterns t = t.patterns

let make_edge app (producer, consumer) =
  let labels = App.shared_between app ~producer ~consumer in
  let tw = (App.task app producer).Task.period in
  let tc = (App.task app consumer).Task.period in
  {
    producer;
    consumer;
    labels;
    pair_period = Time.lcm tw tc;
    w_set = Eta.write_instants ~tw ~tc;
    r_set = Eta.read_instants ~tw ~tc;
  }

(* C(t): every necessary communication at absolute instant [t]. Writes of
   one label towards several consumers merge into a single W communication
   (the data is copied to global memory once). *)
let comms_at_edges edges t =
  List.fold_left
    (fun acc e ->
      let phase = t mod e.pair_period in
      let acc =
        if List.mem phase e.w_set then
          List.fold_left
            (fun acc (l : Label.t) ->
              Comm.Set.add (Comm.write ~task:e.producer ~label:l.Label.id) acc)
            acc e.labels
        else acc
      in
      if List.mem phase e.r_set then
        List.fold_left
          (fun acc (l : Label.t) ->
            Comm.Set.add (Comm.read ~task:e.consumer ~label:l.Label.id) acc)
          acc e.labels
      else acc)
    Comm.Set.empty edges

(* C(t) repeats with H (every pair period divides it), and an instant of
   [0, H) outside [instants] has no communication. *)
let comms_at t time =
  if Tmap.is_empty t.by_instant then Comm.Set.empty
  else
    let h = t.hyperperiod in
    Option.value ~default:Comm.Set.empty
      (Tmap.find_opt (((time mod h) + h) mod h) t.by_instant)

(* G^W(t, tau_i): the LET writes task [i] must issue at [t]. *)
let g_write t ~time ~task =
  Comm.Set.filter
    (fun c -> Comm.equal_kind c.Comm.kind Comm.Write && c.Comm.task = task)
    (comms_at t time)

(* G^R(t, tau_i): the LET reads task [i] requires at [t]. *)
let g_read t ~time ~task =
  Comm.Set.filter
    (fun c -> Comm.equal_kind c.Comm.kind Comm.Read && c.Comm.task = task)
    (comms_at t time)

let s0 t = comms_at t Time.zero

let compute app =
  let edges = List.map (make_edge app) (App.communication_edges app) in
  let h = App.hyperperiod app in
  (* all candidate instants within [0, H) *)
  let module Tset = Set.Make (Int) in
  let candidates =
    List.fold_left
      (fun acc e ->
        let reps = if e.pair_period = 0 then 0 else h / e.pair_period in
        let add_set acc set =
          List.fold_left
            (fun acc s ->
              let rec go acc k =
                if k >= reps then acc
                else go (Tset.add Time.((k * e.pair_period) + s) acc) (k + 1)
              in
              go acc 0)
            acc set
        in
        add_set (add_set acc e.w_set) e.r_set)
      Tset.empty edges
  in
  (* C(t) once per candidate instant; an empty one is no instant *)
  let by_instant =
    Tset.fold
      (fun time acc ->
        let comms = comms_at_edges edges time in
        if Comm.Set.is_empty comms then acc else Tmap.add time comms acc)
      candidates Tmap.empty
  in
  let timed = Tmap.bindings by_instant in
  let instants = List.map fst timed in
  (* group instants into patterns and compute the tightest gap to the next
     communication instant (cyclically: the schedule repeats with H) *)
  let next_gap =
    match instants with
    | [] -> fun _ -> Time.zero
    | first :: _ ->
      let arr = Array.of_list instants in
      let n = Array.length arr in
      fun i ->
        if i = n - 1 then Time.(h - arr.(i) + first) else Time.(arr.(i + 1) - arr.(i))
  in
  let module Smap = Map.Make (Comm.Set) in
  let by_set =
    List.fold_left
      (fun acc (time, comms, gap) ->
        let p =
          match Smap.find_opt comms acc with
          | None -> { comms; occurrences = []; min_gap = Time.of_s 1_000_000 }
          | Some p -> p
        in
        Smap.add comms
          {
            p with
            occurrences = time :: p.occurrences;
            min_gap = Time.min p.min_gap gap;
          }
          acc)
      Smap.empty
      (List.mapi (fun i (time, comms) -> (time, comms, next_gap i)) timed)
  in
  let patterns =
    Smap.fold
      (fun _ p acc -> { p with occurrences = List.rev p.occurrences } :: acc)
      by_set []
    |> List.sort (fun a b ->
           match (a.occurrences, b.occurrences) with
           | t1 :: _, t2 :: _ -> Time.compare t1 t2
           | [], _ | _, [] -> 0)
  in
  { app; edges; hyperperiod = h; by_instant; instants; patterns }

(* The paper's invariant below Algorithm 1: C(t) is a subset of C(s0) for
   every t (synchronous release). Exposed for tests and sanity checks. *)
let check_s0_superset t =
  let c0 = s0 t in
  List.for_all (fun p -> Comm.Set.subset p.comms c0) t.patterns

let pp ppf t =
  let c0 = s0 t in
  Fmt.pf ppf "@[<v>%d communication edges, %d instants/hyperperiod, %d patterns@,C(s0) = {%a}@]"
    (List.length t.edges) (List.length t.instants) (List.length t.patterns)
    Fmt.(list ~sep:(any ", ") (Comm.pp t.app))
    (Comm.Set.elements c0)
