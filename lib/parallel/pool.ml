(* Fixed-size domain pool. One mutex/condition pair guards the queue;
   each future carries its own pair so awaiting never contends with
   submission. Every exception a task raises is funneled into its
   future, so a worker domain exits only at shutdown, after draining
   the queue. *)

type 'a state = Pending | Done of ('a, exn) result

type 'a future = {
  fm : Mutex.t;
  fc : Condition.t;
  mutable state : 'a state;
}

type task = Task : { f : unit -> 'a; fut : 'a future } -> task

type t = {
  m : Mutex.t;
  c : Condition.t; (* queue became non-empty, or the pool is closing *)
  queue : task Queue.t;
  mutable closing : bool;
  mutable workers : unit Domain.t array;
  jobs : int;
}

let jobs t = t.jobs

let fulfil fut r =
  Mutex.lock fut.fm;
  fut.state <- Done r;
  Condition.broadcast fut.fc;
  Mutex.unlock fut.fm

(* The exception funnel: nothing a task raises leaves [run_task]. *)
let run_task (Task tk) =
  fulfil tk.fut (match tk.f () with v -> Ok v | exception e -> Error e)

let rec worker_loop t =
  Mutex.lock t.m;
  while Queue.is_empty t.queue && not t.closing do
    Condition.wait t.c t.m
  done;
  match Queue.take_opt t.queue with
  | None -> Mutex.unlock t.m (* closing and drained *)
  | Some task ->
    Mutex.unlock t.m;
    run_task task;
    worker_loop t

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
      jobs;
    }
  in
  t.workers <-
    Array.init jobs (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let async t f =
  let fut = { fm = Mutex.create (); fc = Condition.create (); state = Pending } in
  Mutex.lock t.m;
  if t.closing then begin
    Mutex.unlock t.m;
    invalid_arg "Pool.async: pool is shut down"
  end;
  Queue.push (Task { f; fut }) t.queue;
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
  if first then Array.iter Domain.join t.workers
