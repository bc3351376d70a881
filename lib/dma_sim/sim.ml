open Rt_model
open Let_sem

(* Discrete-event simulation of one hyperperiod of LET communications,
   under the paper's DMA protocol (rules R1-R3 of Section V.B) or under
   the Giotto baselines. The protocol is strictly sequential per resource
   (one DMA engine, or [n] channels under [Dma_multi]; CPU copies on
   their cores), so the simulation advances per-resource time cursors
   across the sorted communication instants; bursts that overrun the
   next instant (possible for baselines that violate Property 3) queue
   up naturally on the busy resource. *)

type cpu_model = Parallel_phases | Serialized

type mode =
  | Dma_protocol of (Time.t -> Properties.plan)
      (* proposed protocol: a task is ready when the transfers carrying its
         own communications complete (R1/R3) *)
  | Dma_multi of int * (Time.t -> Properties.plan)
      (* extension beyond the paper: [n] parallel DMA channels; transfers
         run concurrently when their LET dependencies allow, readiness as
         in the protocol *)
  | Dma_barrier of (Time.t -> Properties.plan)
      (* Giotto-with-DMA: every task released at the instant waits for the
         whole burst *)
  | Cpu_copy of cpu_model
      (* Giotto-CPU: per-core LET tasks copy by CPU, writes phase then
         reads phase, global barrier *)

type job = { task : int; release : Time.t; ready : Time.t }

type metrics = {
  lambda : Time.t array; (* per task: max (ready - release) over the horizon *)
  jobs : job list;
  transfers_issued : int;
  bytes_moved : int;
  busy : Time.t; (* cumulated DMA or CPU copy busy time *)
  trace : Trace.event list;
  fault_stats : Faults.stats option; (* Some iff faults were injected *)
}

let lambda_of m task = m.lambda.(task)

let max_lambda_ratio app m =
  List.fold_left
    (fun acc (t : Task.t) ->
      Float.max acc
        (Time.to_s_float m.lambda.(t.Task.id) /. Time.to_s_float t.Task.period))
    0.0 (App.tasks app)

(* --- DMA burst execution ------------------------------------------- *)

(* Execute one transfer starting at [t0]: channel programming, linear
   copy, completion interrupt. Under a fault injector, each transient
   failure re-pays programming and (stretched) copy time without a
   completion interrupt, the final copy may also stretch, and a dropped
   interrupt delays the ISR by the model's timeout. Without an injector —
   or with an all-zero model, whose draws return the nominal values
   untouched — the arithmetic and emitted events are exactly the
   historical fault-free ones. Returns the completion time. *)
let exec_transfer p ~inj ~record ~core ~index ~labels ~bytes ~t0 trace =
  let nominal = Platform.dma_copy_time p bytes in
  let stretched () =
    match inj with None -> nominal | Some i -> Faults.copy_time i nominal
  in
  let n_attempts = match inj with None -> 1 | Some i -> Faults.attempts i in
  let cursor = ref t0 in
  for _ = 2 to n_attempts do
    let t1 = Time.(!cursor + p.Platform.o_dp) in
    let t2 = Time.(t1 + stretched ()) in
    if record then begin
      trace := Trace.Dma_program { core; index; start = !cursor; finish = t1 } :: !trace;
      trace := Trace.Dma_copy { index; labels; bytes; start = t1; finish = t2 } :: !trace
    end;
    cursor := t2
  done;
  let t1 = Time.(!cursor + p.Platform.o_dp) in
  let t2 = Time.(t1 + stretched ()) in
  let isr_start =
    match inj with None -> t2 | Some i -> Time.(t2 + Faults.isr_delay i)
  in
  let t3 = Time.(isr_start + p.Platform.o_isr) in
  if record then begin
    trace := Trace.Dma_program { core; index; start = !cursor; finish = t1 } :: !trace;
    trace := Trace.Dma_copy { index; labels; bytes; start = t1; finish = t2 } :: !trace;
    trace := Trace.Dma_isr { core; index; start = isr_start; finish = t3 } :: !trace
  end;
  t3

(* --- DMA burst execution on one or more channels -------------------- *)

(* LET-ordering dependencies between a plan's transfers: transfer j must
   wait for an earlier transfer i when i writes a label j reads (Property
   2) or i carries a write and j a read of the same task (Property 1).
   Transfers without such a dependency may run on different channels in
   parallel. *)
let plan_dependencies (plan : Properties.plan) =
  let transfers = Array.of_list plan in
  let n = Array.length transfers in
  let deps = Array.make n [] in
  for j = 0 to n - 1 do
    for i = 0 to j - 1 do
      let blocking =
        List.exists
          (fun (ci : Comm.t) ->
            ci.Comm.kind = Comm.Write
            && List.exists
                 (fun (cj : Comm.t) ->
                   cj.Comm.kind = Comm.Read
                   && (cj.Comm.label = ci.Comm.label || cj.Comm.task = ci.Comm.task))
                 transfers.(j))
          transfers.(i)
      in
      if blocking then deps.(j) <- i :: deps.(j)
    done
  done;
  (transfers, deps)

(* Execute one instant's burst on the parallel DMA engines whose
   availability [chan_avail] holds: transfers are taken in plan order,
   each starting on the earliest available channel once its dependencies
   have completed. On one channel every transfer already waits for the
   one before it, so the dependency scan is skipped there. Returns the
   transfers in plan order with their completion times and bytes. *)
let run_dma_burst app ?inj ~record plan ~at ~chan_avail trace =
  let p = App.platform app in
  let channels = Array.length chan_avail in
  let transfers, deps =
    if channels = 1 then
      let transfers = Array.of_list plan in
      (transfers, Array.make (Array.length transfers) [])
    else plan_dependencies plan
  in
  let n = Array.length transfers in
  let completion = Array.make n Time.zero in
  let out = ref [] in
  for g = 0 to n - 1 do
    let deps_done =
      List.fold_left (fun acc i -> Time.max acc completion.(i)) at deps.(g)
    in
    (* earliest-available channel *)
    let ch = ref 0 in
    for c = 1 to channels - 1 do
      if Time.compare chan_avail.(c) chan_avail.(!ch) < 0 then ch := c
    done;
    let t0 = Time.max deps_done chan_avail.(!ch) in
    let core =
      match transfers.(g) with c :: _ -> Comm.local_core app c | [] -> 0
    in
    let bytes = Properties.transfer_bytes app transfers.(g) in
    let t3 =
      exec_transfer p ~inj ~record ~core ~index:g
        ~labels:(List.map (fun c -> c.Comm.label) transfers.(g))
        ~bytes ~t0 trace
    in
    chan_avail.(!ch) <- t3;
    completion.(g) <- t3;
    out := (transfers.(g), t3, bytes) :: !out
  done;
  List.rev !out

(* --- CPU burst execution ------------------------------------------- *)

let run_cpu_burst app model ~record comms ~at ~core_avail trace =
  let p = App.platform app in
  match model with
  | Serialized ->
    (* all copies serialized on the contended global memory, Giotto order *)
    let ordered = Giotto.order app comms in
    let start =
      Array.fold_left Time.max at core_avail
    in
    let cursor = ref start in
    let bytes = ref 0 in
    List.iter
      (fun c ->
        let d = Platform.cpu_copy_time p (Comm.size app c) in
        let t1 = Time.(!cursor + d) in
        if record then
          trace :=
            Trace.Cpu_copy
              { core = Comm.local_core app c; comm = c; start = !cursor; finish = t1 }
            :: !trace;
        bytes := !bytes + Comm.size app c;
        cursor := t1)
      ordered;
    Array.iteri (fun k _ -> core_avail.(k) <- !cursor) core_avail;
    (!cursor, !bytes, Time.( - ) !cursor start)
  | Parallel_phases ->
    (* cores copy their own writes in parallel, a global barrier, then
       their reads in parallel (contention-free best case for Giotto-CPU) *)
    let seqs = Giotto.per_core_sequences app comms in
    let bytes = ref 0 in
    let busy = ref Time.zero in
    let phase pred start_of_phase =
      List.mapi
        (fun k seq ->
          let cursor = ref (Time.max start_of_phase core_avail.(k)) in
          List.iter
            (fun c ->
              if pred c then begin
                let d = Platform.cpu_copy_time p (Comm.size app c) in
                let t1 = Time.(!cursor + d) in
                if record then
                  trace :=
                    Trace.Cpu_copy { core = k; comm = c; start = !cursor; finish = t1 }
                    :: !trace;
                bytes := !bytes + Comm.size app c;
                busy := Time.(!busy + d);
                cursor := t1
              end)
            seq;
          !cursor)
        seqs
    in
    let write_ends = phase (fun c -> c.Comm.kind = Comm.Write) at in
    let barrier = List.fold_left Time.max at write_ends in
    let read_ends = phase (fun c -> c.Comm.kind = Comm.Read) barrier in
    let finish = List.fold_left Time.max barrier read_ends in
    Array.iteri (fun k _ -> core_avail.(k) <- finish) core_avail;
    (finish, !bytes, !busy)

(* --- main loop ------------------------------------------------------ *)

let run ?(record_trace = false) ?horizon ?faults app groups mode =
  let h = App.hyperperiod app in
  let horizon = match horizon with Some x -> x | None -> h in
  let n = App.num_tasks app in
  let inj = Option.map Faults.create faults in
  let trace = ref [] in
  let core_avail = Array.make (App.platform app).Platform.n_cores Time.zero in
  let chan_avail =
    match mode with
    | Dma_multi (channels, _) ->
      if channels < 1 then invalid_arg "Sim.run: need at least one DMA channel";
      Array.make channels Time.zero
    | Dma_protocol _ | Dma_barrier _ -> Array.make 1 Time.zero
    | Cpu_copy _ -> [||]
  in
  let transfers = ref 0 in
  let bytes_total = ref 0 in
  let busy_total = ref Time.zero in
  let p = App.platform app in
  (* Execute the DMA burst at instant [t] and account its transfers. *)
  let dma_burst t schedule =
    let completions =
      run_dma_burst app ?inj ~record:record_trace (schedule t) ~at:t
        ~chan_avail trace
    in
    transfers := !transfers + List.length completions;
    List.iter
      (fun (_, _, b) ->
        bytes_total := !bytes_total + b;
        busy_total :=
          Time.(!busy_total + Platform.lambda_o p + Platform.dma_copy_time p b))
      completions;
    completions
  in
  (* Execute the burst at instant [t]; the result maps a released task to
     its ready time. *)
  let run_instant t =
    let comms = Groups.comms_at groups t in
    if Comm.Set.is_empty comms then fun _ -> t
    else
      match mode with
      | Dma_protocol schedule | Dma_multi (_, schedule) ->
        let completions = dma_burst t schedule in
        fun task ->
          (* R1/R3: ready when the transfers carrying this task's own
             communications have completed *)
          List.fold_left
            (fun acc (g, fin, _) ->
              if List.exists (fun c -> c.Comm.task = task) g then
                Time.max acc fin
              else acc)
            t completions
      | Dma_barrier schedule ->
        let burst_end =
          List.fold_left
            (fun acc (_, fin, _) -> Time.max acc fin)
            t (dma_burst t schedule)
        in
        fun _ -> burst_end
      | Cpu_copy model ->
        let finish, b, busy =
          run_cpu_burst app model ~record:record_trace comms ~at:t ~core_avail
            trace
        in
        bytes_total := !bytes_total + b;
        busy_total := Time.(!busy_total + busy);
        fun _ -> finish
  in
  (* walk the communication instants in order, recording each burst's
     readiness function *)
  let ready_fns = Hashtbl.create 1024 in
  List.iter
    (fun t -> if t < horizon then Hashtbl.replace ready_fns t (run_instant t))
    (Groups.instants groups);
  let lambda = Array.make n Time.zero in
  let jobs = ref [] in
  List.iter
    (fun (task : Task.t) ->
      let i = task.Task.id in
      let rec releases t =
        if t >= horizon then ()
        else begin
          let ready =
            match Hashtbl.find_opt ready_fns t with Some f -> f i | None -> t
          in
          if record_trace then
            trace := Trace.Task_ready { task = i; time = ready } :: !trace;
          lambda.(i) <- Time.max lambda.(i) Time.(ready - t);
          jobs := { task = i; release = t; ready } :: !jobs;
          releases Time.(t + task.Task.period)
        end
      in
      releases Time.zero)
    (App.tasks app);
  {
    lambda;
    jobs = List.rev !jobs;
    transfers_issued = !transfers;
    bytes_moved = !bytes_total;
    busy = !busy_total;
    trace = Trace.sort_events !trace;
    fault_stats = Option.map Faults.stats inj;
  }

let pp_metrics app ppf m =
  Fmt.pf ppf "@[<v>%a@,transfers=%d bytes=%d busy=%a@]"
    Fmt.(
      list ~sep:cut (fun ppf (t : Task.t) ->
          pf ppf "  lambda(%s) = %a" t.Task.name Time.pp m.lambda.(t.Task.id)))
    (App.tasks app) m.transfers_issued m.bytes_moved Time.pp m.busy
