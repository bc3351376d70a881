open Rt_model
open Let_sem
open Mem_layout

(* Greedy scheduler/allocator: a scalable alternative to the MILP, also
   used as its warm start and as an ablation baseline.

   Ideas:
   - Transfers are built at the granularity of (task, class, instant
     signature): all member communications are needed at exactly the same
     instants, so a transfer projects atomically onto every C(t) and
     Constraint 6 holds by construction once the allocation keeps each
     transfer contiguous.
   - The global memory order is built by concatenating transfer label
     blocks (reads-major or writes-major — both are tried and the better
     plan wins); local memories inherit the global relative order, so a
     block contiguous in global memory is contiguous everywhere it exists.
     Transfers whose labels still end up scattered are split into maximal
     contiguous runs.
   - Transfers are ordered by list scheduling driven by the consumers'
     data-acquisition deadlines (gamma ascending): each consumer's missing
     prerequisite writes are emitted right before its reads. *)

type transfer = {
  key : int * (int * Comm.direction) * int list; (* task, class, signature *)
  comms : Comm.t list;
}

(* Signature: the set of patterns containing the communication — two comms
   share it iff they are needed at exactly the same instants. *)
let signatures groups =
  let tbl = Hashtbl.create 64 in
  List.iteri
    (fun pi (pat : Groups.pattern) ->
      Comm.Set.iter
        (fun c ->
          let old = Option.value ~default:[] (Hashtbl.find_opt tbl c) in
          Hashtbl.replace tbl c (pi :: old))
        pat.Groups.comms)
    (Groups.patterns groups);
  fun c -> List.rev (Option.value ~default:[] (Hashtbl.find_opt tbl c))

(* [`Per_task] keeps one transfer per (task, class, signature): per-task
   readiness stays fine-grained (good for latency). [`Grouped] merges
   across tasks, keyed by (class, signature) only: fewest transfers (the
   warm start for the OBJ-DMAT objective). *)
type granularity = Per_task | Grouped

let build_transfers ?(granularity = Per_task) app groups =
  let signature = signatures groups in
  let tbl = Hashtbl.create 64 in
  Comm.Set.iter
    (fun c ->
      let task_key =
        match granularity with Per_task -> c.Comm.task | Grouped -> -1
      in
      let key = (task_key, Comm.cls app c, signature c) in
      let old = Option.value ~default:[] (Hashtbl.find_opt tbl key) in
      Hashtbl.replace tbl key (c :: old))
    (Groups.s0 groups);
  Hashtbl.fold
    (fun key comms acc ->
      { key; comms = List.sort Comm.compare comms } :: acc)
    tbl []
  |> List.sort (fun a b -> compare a.key b.key)

let is_write t =
  match t.comms with
  | c :: _ -> c.Comm.kind = Comm.Write
  | [] -> false

let labels_of t =
  List.sort_uniq Int.compare (List.map (fun c -> c.Comm.label) t.comms)

(* Global-memory order: concatenate the blocks of the [major] transfers
   (first-placement wins), then append any label not yet placed. Local
   memories inherit the global relative order. *)
let build_allocation app transfers ~reads_major =
  let major, minor = List.partition (fun t -> is_write t <> reads_major) transfers in
  let placed = Hashtbl.create 64 in
  let order = ref [] in
  let place t =
    List.iter
      (fun l ->
        if not (Hashtbl.mem placed l) then begin
          Hashtbl.replace placed l ();
          order := l :: !order
        end)
      (labels_of t)
  in
  List.iter place major;
  List.iter place minor;
  let global_order = List.rev !order in
  let orders =
    List.filter_map
      (fun m ->
        match Layout.expected_labels app m with
        | [] -> None
        | expected ->
          let expected = List.sort_uniq Int.compare expected in
          Some (m, List.filter (fun l -> List.mem l expected) global_order))
      (Platform.memories (App.platform app))
  in
  Allocation.make app orders

(* Split a transfer into maximal runs contiguous in both its memories. *)
let split_transfer app alloc t =
  match t.comms with
  | [] -> []
  | c :: _ ->
    let src = Allocation.layout alloc (Comm.src_memory app c) in
    let dst = Allocation.layout alloc (Comm.dst_memory app c) in
    let sorted =
      List.sort
        (fun a b ->
          Int.compare
            (Layout.position src a.Comm.label)
            (Layout.position src b.Comm.label))
        t.comms
    in
    let runs = ref [] and current = ref [] in
    let flush () =
      if !current <> [] then runs := List.rev !current :: !runs;
      current := []
    in
    List.iter
      (fun c ->
        (match !current with
         | [] -> current := [ c ]
         | prev :: _ ->
           let candidate = List.map (fun x -> x.Comm.label) (c :: !current) in
           ignore prev;
           if Layout.transferable ~src ~dst candidate then current := c :: !current
           else begin
             flush ();
             current := [ c ]
           end))
      sorted;
    flush ();
    let task, cls, sig_ = t.key in
    (* runs were accumulated in reverse; re-key each run uniquely so the
       scheduler's key-based dedup keeps all of them *)
    List.rev !runs
    |> List.mapi (fun k comms -> { key = (task, cls, k :: sig_); comms })

(* Deadline-driven list scheduling: consumers in gamma-ascending order pull
   in their missing prerequisite writes, then their reads. *)
let order_transfers ~gamma transfers =
  let writes, reads = List.partition is_write transfers in
  let scheduled = Hashtbl.create 64 in
  let sequence = ref [] in
  let emit t =
    if not (Hashtbl.mem scheduled t.key) then begin
      Hashtbl.replace scheduled t.key ();
      sequence := t :: !sequence
    end
  in
  let writes_of_label l =
    List.filter (fun w -> List.mem l (labels_of w)) writes
  in
  let writes_of_task i =
    List.filter
      (fun w -> List.exists (fun c -> c.Comm.task = i) w.comms)
      writes
  in
  let consumers =
    List.concat_map (fun r -> List.map (fun c -> c.Comm.task) r.comms) reads
    |> List.sort_uniq Int.compare
    |> List.sort (fun a b -> Time.compare gamma.(a) gamma.(b))
  in
  List.iter
    (fun consumer ->
      let my_reads =
        List.filter
          (fun r -> List.exists (fun c -> c.Comm.task = consumer) r.comms)
          reads
      in
      (* Property 1: the consumer's own writes must precede its reads *)
      List.iter emit (writes_of_task consumer);
      (* Property 2: the writes feeding each read; Property 1 again for
         every other task whose reads a grouped read carries *)
      List.iter
        (fun r ->
          List.iter (fun l -> List.iter emit (writes_of_label l)) (labels_of r);
          List.iter
            (fun c -> List.iter emit (writes_of_task c.Comm.task))
            r.comms)
        my_reads;
      List.iter emit my_reads)
    consumers;
  (* safety net: anything not pulled in yet *)
  List.iter emit writes;
  List.iter emit reads;
  List.rev !sequence

let plan_of ?granularity app groups ~gamma ~reads_major =
  let transfers = build_transfers ?granularity app groups in
  let allocation = build_allocation app transfers ~reads_major in
  let transfers =
    List.concat_map (fun t -> split_transfer app allocation t) transfers
  in
  let ordered = order_transfers ~gamma transfers in
  let slots = Array.of_list (List.map (fun t -> t.comms) ordered) in
  Solution.make ~allocation ~slots

(* Worst task criticality of a solution: max lambda_i(s0) / gamma_i
   (<= 1 means every data-acquisition deadline holds at s0). *)
let criticality app ~gamma sol =
  let lambda = Solution.lambda_s0 app sol in
  let worst = ref 0.0 in
  Array.iteri
    (fun i l ->
      if l > Time.zero then begin
        let g = Float.max 1.0 (float_of_int (Time.to_ns gamma.(i))) in
        worst := Float.max !worst (float_of_int (Time.to_ns l) /. g)
      end)
    lambda;
  !worst

let best_of ?granularity app groups ~gamma =
  let a = plan_of ?granularity app groups ~gamma ~reads_major:true in
  let b = plan_of ?granularity app groups ~gamma ~reads_major:false in
  if criticality app ~gamma a <= criticality app ~gamma b then a else b

(* Try both allocation majors and keep the plan with the best (smallest)
   worst-case criticality. *)
let solve ?granularity app groups ~gamma =
  match Comm.Set.is_empty (Groups.s0 groups) with
  | true -> Error "heuristic: no inter-core communications"
  | false ->
    let pick = best_of ?granularity app groups ~gamma in
    (match Solution.validate app groups pick with
     | Ok () -> Ok pick
     | Error e ->
       (* Property 3 can legitimately fail on overloaded configurations;
          the caller decides whether a latency-infeasible plan is usable *)
       Error (Fmt.str "heuristic plan failed validation: %s" e))

(* Expose the raw (possibly invalid) plan for experiments that want to
   simulate it anyway. *)
let solve_unchecked ?granularity app groups ~gamma =
  if Comm.Set.is_empty (Groups.s0 groups) then None
  else Some (best_of ?granularity app groups ~gamma)
