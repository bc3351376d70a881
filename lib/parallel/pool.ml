(* Fixed-size supervised domain pool. One mutex/condition pair guards the
   queue; each future carries its own pair so awaiting never contends
   with submission. Worker domains exit only at shutdown, after draining
   the queue.

   Supervision: a task exception is normally funneled into the task's
   future ([Error]); an exception that escapes the funnel — [Poison] by
   construction, or anything thrown by the pool machinery itself — kills
   the worker's domain body. The spawn wrapper catches it as the domain's
   last act: the in-flight task is re-enqueued (if it has crash retries
   left) or failed with [Worker_crashed], a replacement domain is spawned
   (so the pool never silently loses capacity), and the domain exits
   normally — [Domain.join] in [shutdown] therefore never raises and
   [await] never deadlocks on a dead worker's task. *)

let src = Logs.Src.create "parallel.pool" ~doc:"supervised domain pool"

module Log = (val Logs.src_log src : Logs.LOG)

exception Poison of string

exception Worker_crashed of { worker : int; cause : string }

let () =
  Printexc.register_printer (function
    | Poison m -> Some (Fmt.str "Pool.Poison(%s)" m)
    | Worker_crashed { worker; cause } ->
      Some (Fmt.str "Pool.Worker_crashed(worker %d: %s)" worker cause)
    | _ -> None)

type 'a state = Pending | Done of ('a, exn) result

type 'a future = {
  fm : Mutex.t;
  fc : Condition.t;
  mutable state : 'a state;
}

type task =
  | Task : {
      f : unit -> 'a;
      fut : 'a future;
      mutable retries : int;  (* crash re-enqueues left *)
    }
      -> task

type t = {
  m : Mutex.t;
  c : Condition.t; (* queue became non-empty, or the pool is closing *)
  queue : task Queue.t;
  mutable closing : bool;
  mutable workers : unit Domain.t array; (* current generation, per slot *)
  mutable all : unit Domain.t list; (* every domain ever spawned *)
  inflight : task option array; (* per-slot, guarded by [m] *)
  mutable live : int; (* workers currently running *)
  mutable crashes : int;
  jobs : int;
}

let jobs t = t.jobs

let crashes t =
  Mutex.lock t.m;
  let n = t.crashes in
  Mutex.unlock t.m;
  n

let fulfil fut r =
  Mutex.lock fut.fm;
  fut.state <- Done r;
  Condition.broadcast fut.fc;
  Mutex.unlock fut.fm

(* The exception funnel. [Poison] deliberately escapes it — that is the
   fault-injection (and, for machinery bugs, the honest-failure) path the
   supervisor exists for. *)
let run_task (Task tk) =
  let r =
    match tk.f () with
    | v -> Ok v
    | exception (Poison _ as p) -> raise p
    | exception e -> Error e
  in
  fulfil tk.fut r

let rec worker_loop t slot =
  Mutex.lock t.m;
  while Queue.is_empty t.queue && not t.closing do
    Condition.wait t.c t.m
  done;
  if Queue.is_empty t.queue then begin
    (* closing and drained *)
    Mutex.unlock t.m
  end
  else begin
    let task = Queue.pop t.queue in
    t.inflight.(slot) <- Some task;
    Mutex.unlock t.m;
    run_task task;
    Mutex.lock t.m;
    t.inflight.(slot) <- None;
    Mutex.unlock t.m;
    worker_loop t slot
  end

(* Fail every queued task: last-resort path when a replacement domain
   cannot be spawned and no worker remains to drain the queue. Caller
   holds [t.m]. *)
let fail_queue t slot cause =
  Queue.iter
    (fun (Task tk) ->
      fulfil tk.fut (Error (Worker_crashed { worker = slot; cause })))
    t.queue;
  Queue.clear t.queue

(* Runs on the dying domain, as its last act: settle the in-flight task,
   restore pool capacity, exit cleanly (so joins never raise). *)
let rec handle_crash t slot cause =
  let cause_s = Printexc.to_string cause in
  Mutex.lock t.m;
  t.crashes <- t.crashes + 1;
  t.live <- t.live - 1;
  (match t.inflight.(slot) with
   | None -> ()
   | Some (Task tk as task) ->
     t.inflight.(slot) <- None;
     if tk.retries > 0 then begin
       tk.retries <- tk.retries - 1;
       Queue.push task t.queue;
       Condition.signal t.c
     end
     else
       fulfil tk.fut
         (Error (Worker_crashed { worker = slot; cause = cause_s })));
  let want_respawn = (not t.closing) || not (Queue.is_empty t.queue) in
  if want_respawn then begin
    match spawn_worker t slot with
    | d ->
      t.workers.(slot) <- d;
      t.all <- d :: t.all;
      t.live <- t.live + 1
    | exception _ ->
      if t.live = 0 then fail_queue t slot cause_s
  end;
  Mutex.unlock t.m;
  Obs.point ~cat:"pool" "worker.respawn"
    [ ("worker", Obs.Int slot); ("cause", Obs.Str cause_s) ];
  Log.warn (fun f ->
      f "pool: worker %d died (%s)%s" slot cause_s
        (if want_respawn then "; respawned" else ""))

and spawn_worker t slot =
  Domain.spawn (fun () ->
      try worker_loop t slot with cause -> handle_crash t slot cause)

let validate_jobs j =
  if j >= 1 then Ok j else Error (Fmt.str "jobs must be >= 1, got %d" j)

let create ?jobs () =
  let jobs =
    match jobs with
    | Some j -> (
      match validate_jobs j with
      | Ok j -> j
      | Error m -> invalid_arg ("Pool.create: " ^ m))
    | None -> max 1 (Domain.recommended_domain_count ())
  in
  let t =
    {
      m = Mutex.create ();
      c = Condition.create ();
      queue = Queue.create ();
      closing = false;
      workers = [||];
      all = [];
      inflight = Array.make jobs None;
      live = 0;
      crashes = 0;
      jobs;
    }
  in
  t.workers <- Array.init jobs (fun slot -> spawn_worker t slot);
  t.all <- Array.to_list t.workers;
  t.live <- jobs;
  t

let async ?(retry_on_crash = 0) t f =
  let fut = { fm = Mutex.create (); fc = Condition.create (); state = Pending } in
  Mutex.lock t.m;
  if t.closing then begin
    Mutex.unlock t.m;
    invalid_arg "Pool.async: pool is shut down"
  end;
  Queue.push (Task { f; fut; retries = max 0 retry_on_crash }) t.queue;
  Condition.signal t.c;
  Mutex.unlock t.m;
  fut

let await fut =
  Mutex.lock fut.fm;
  let rec wait () =
    match fut.state with
    | Pending ->
      Condition.wait fut.fc fut.fm;
      wait ()
    | Done r -> r
  in
  let r = wait () in
  Mutex.unlock fut.fm;
  r

let shutdown t =
  Mutex.lock t.m;
  let first = not t.closing in
  t.closing <- true;
  Condition.broadcast t.c;
  Mutex.unlock t.m;
  if first then begin
    (* Crash handlers may register replacement domains while we join, so
       iterate until the spawned set is stable. A replacement is always
       added to [t.all] before its predecessor's body finishes, hence
       before the predecessor's join returns — no new domain can appear
       after a round that found nothing left to join. *)
    let joined = ref [] in
    let rec drain () =
      Mutex.lock t.m;
      let pending =
        List.filter (fun d -> not (List.memq d !joined)) t.all
      in
      Mutex.unlock t.m;
      match pending with
      | [] -> ()
      | ds ->
        List.iter
          (fun d ->
            Domain.join d;
            joined := d :: !joined)
          ds;
        drain ()
    in
    drain ()
  end
