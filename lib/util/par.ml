(* Persistent domain pool with an atomic work index and index-ordered
   result merge. See par.mli for the contract.

   Workers are spawned lazily on the first parallel call and then kept
   parked on a condition variable between calls. [Domain.spawn] costs
   milliseconds on typical hardware — tolerable when each task runs
   long enough to hide it, but fatal once a hot evaluation cache turns
   the tabu search's candidate batches into microsecond tasks: a
   spawn-per-call pool then spends ~100% of its wall clock creating and
   joining domains. Reusing parked domains makes the per-call dispatch
   cost a mutex/condvar round-trip (~a few microseconds). *)

let default_jobs () = Domain.recommended_domain_count ()

(* Set in every worker domain (and in the calling domain while it
   participates in its own job) so nested Par calls degrade to the
   sequential path instead of recursing into the pool. *)
let worker_flag : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let in_worker () = Domain.DLS.get worker_flag

(* Domains actually used for [n] tasks: never more than tasks or cores,
   never parallel inside a worker. A call that asks for more than one
   domain publishes the request and the clamp as gauges while
   recording. *)
let effective_jobs ?jobs n =
  if in_worker () then 1
  else
    let requested = match jobs with Some j -> j | None -> default_jobs () in
    if requested <= 1 then 1
    else begin
      let effective = max 1 (min (min requested n) (default_jobs ())) in
      if Events.enabled () then begin
        Telemetry.set_gauge "par.jobs_requested" (float_of_int requested);
        Telemetry.set_gauge "par.jobs_effective" (float_of_int effective)
      end;
      effective
    end

(* A published batch of tasks. Workers pull indices from [next];
   [completed] counts finished tasks so the caller knows when the batch
   has drained ([Atomic.incr] after the task body also publishes the
   task's plain writes to the caller). [participants] caps how many
   pool workers join this batch, so [~jobs] stays an upper bound on the
   domains doing work even when the pool has grown larger. [active]
   counts the workers that picked the job up (under the pool lock) and
   have not yet closed their span. *)
type job = {
  n : int;
  task : int -> unit;  (* never raises: wrapped by run_pool *)
  next : int Atomic.t;
  completed : int Atomic.t;
  max_workers : int;
  participants : int Atomic.t;
  active : int Atomic.t;
  published : float;  (* publish wall clock for the telemetry queue-wait
                         histogram; nan while telemetry is disabled *)
}

type pool = {
  lock : Mutex.t;
  wake : Condition.t;
  mutable job : job option;
  mutable generation : int;
  mutable shutdown : bool;
  mutable workers : unit Domain.t list;
}

let pool =
  {
    lock = Mutex.create ();
    wake = Condition.create ();
    job = None;
    generation = 0;
    shutdown = false;
    workers = [];
  }

(* Telemetry: fan-out sizes, worker queue waits (publish -> first pull)
   and per-worker busy spans. All gated on the telemetry switch. *)
let h_fanout =
  Telemetry.histogram
    ~bounds:[| 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256.; 512.; 1024. |]
    "par.fanout"

let h_queue_wait = Telemetry.histogram "par.queue_wait_s"

let run_tasks (j : job) =
  let rec loop () =
    let i = Atomic.fetch_and_add j.next 1 in
    if i < j.n then begin
      j.task i;
      Atomic.incr j.completed;
      loop ()
    end
  in
  loop ()

let worker_body () =
  Domain.DLS.set worker_flag true;
  let my_gen = ref 0 in
  let rec loop () =
    Mutex.lock pool.lock;
    while (not pool.shutdown) && pool.generation = !my_gen do
      Condition.wait pool.wake pool.lock
    done;
    if pool.shutdown then Mutex.unlock pool.lock
    else begin
      my_gen := pool.generation;
      let j = pool.job in
      Option.iter (fun j -> Atomic.incr j.active) j;
      Mutex.unlock pool.lock;
      (match j with
      | Some j when Atomic.fetch_and_add j.participants 1 < j.max_workers ->
          if Events.enabled () then begin
            if Float.is_finite j.published then
              Telemetry.observe h_queue_wait (Events.now () -. j.published);
            Events.with_span ~cat:"par"
              ~args:[ ("tasks", Events.Int j.n) ]
              "par.worker" (fun () -> run_tasks j)
          end
          else run_tasks j
      | _ -> ());
      Option.iter (fun j -> Atomic.decr j.active) j;
      loop ()
    end
  in
  loop ()

(* Grow the pool to [want] workers. Called with [pool.lock] held; the
   new domains block on that same lock until the caller publishes the
   job and releases it. *)
let ensure_workers want =
  let have = List.length pool.workers in
  for _ = have + 1 to want do
    pool.workers <- Domain.spawn worker_body :: pool.workers
  done

let shutdown () =
  Mutex.lock pool.lock;
  pool.shutdown <- true;
  Condition.broadcast pool.wake;
  let ws = pool.workers in
  pool.workers <- [];
  Mutex.unlock pool.lock;
  List.iter Domain.join ws;
  (* Re-arm the pool: a later parallel call may lazily respawn workers.
     An explicit shutdown is therefore safe to call from test and bench
     mains without poisoning any code that runs after it. *)
  Mutex.lock pool.lock;
  pool.shutdown <- false;
  Mutex.unlock pool.lock

let () = at_exit shutdown

let pool_size () =
  Mutex.lock pool.lock;
  let n = List.length pool.workers in
  Mutex.unlock pool.lock;
  n

let drain_interval_s = 0.002

let run_pool_impl ~jobs ~n ~(task : int -> unit) =
  let error : exn option Atomic.t = Atomic.make None in
  let task i =
    (* Once a task has raised, the remaining indices are still claimed
       (so [completed] reaches [n] and the caller unblocks) but their
       bodies are skipped, mirroring the fail-fast drain of a
       spawn-per-call pool. *)
    if Atomic.get error = None then
      try task i
      with e -> ignore (Atomic.compare_and_set error None (Some e))
  in
  let j =
    {
      n;
      task;
      next = Atomic.make 0;
      completed = Atomic.make 0;
      max_workers = jobs - 1;
      participants = Atomic.make 0;
      active = Atomic.make 0;
      published =
        (if Events.enabled () then Events.now () else Float.nan);
    }
  in
  Telemetry.observe h_fanout (float_of_int n);
  Mutex.lock pool.lock;
  let parked = not pool.shutdown in
  if parked then begin
    ensure_workers (jobs - 1);
    Telemetry.set_gauge "par.pool_size"
      (float_of_int (List.length pool.workers));
    pool.job <- Some j;
    pool.generation <- pool.generation + 1;
    Condition.broadcast pool.wake
  end;
  Mutex.unlock pool.lock;
  (* The calling domain pulls tasks too; restore its flag afterwards so
     subsequent top-level Par calls still parallelize. *)
  let saved = Domain.DLS.get worker_flag in
  Domain.DLS.set worker_flag true;
  run_tasks j;
  Domain.DLS.set worker_flag saved;
  (* Wait out the workers' in-flight tasks (at most one per worker once
     [next] is exhausted, so this spin is bounded by a single task).
     Long tasks, such as portfolio members, would otherwise hold the
     workers' records back until the fan-out returns: while recording,
     the caller drains the stream every [drain_interval_s] of waiting.
     With recording off the loop reads one atomic per spin. *)
  let next_drain = ref Float.nan in
  while Atomic.get j.completed < n do
    if Events.enabled () then begin
      let t = Events.now () in
      if Float.is_nan !next_drain then next_drain := t +. drain_interval_s
      else if t >= !next_drain then begin
        next_drain := t +. drain_interval_s;
        Events.drain ()
      end
    end;
    Domain.cpu_relax ()
  done;
  if parked then begin
    (* Drop the job so the pool does not retain the task closure (and
       whatever result buffers it captures) until the next call; then
       wait for the workers that took it to close their spans, or one
       that took it late records into whatever session follows. *)
    Mutex.lock pool.lock;
    (match pool.job with
    | Some j' when j' == j -> pool.job <- None
    | _ -> ());
    Mutex.unlock pool.lock;
    while Atomic.get j.active > 0 do
      Domain.cpu_relax ()
    done
  end;
  match Atomic.get error with Some e -> raise e | None -> ()

(* The dispatch span shows each fan-out on the calling domain's track;
   gated here (not just inside with_span) so the disabled path does not
   even allocate the args list. *)
let run_pool ~jobs ~n ~task =
  if Events.enabled () then
    Events.with_span ~cat:"par"
      ~args:[ ("tasks", Events.Int n); ("jobs", Events.Int jobs) ]
      "par.dispatch"
      (fun () -> run_pool_impl ~jobs ~n ~task)
  else run_pool_impl ~jobs ~n ~task

(* [jobs] is already effective and above 1. Each slot is written by
   exactly one domain and only read after the completion counter reaches
   [n], which establishes the happens-before edge. *)
let pool_map_array ~jobs f input =
  let n = Array.length input in
  let results = Array.make n None in
  run_pool ~jobs ~n ~task:(fun i -> results.(i) <- Some (f input.(i)));
  Array.map (function Some y -> y | None -> assert false) results

let map_array ?jobs f input =
  let jobs = effective_jobs ?jobs (Array.length input) in
  if jobs <= 1 then Array.map f input else pool_map_array ~jobs f input

(* One list-to-array conversion up front; its length then serves the
   pool-size decision and the parallel path reuses the same array, so
   the input list is traversed exactly once on either path. *)
let map ?jobs f xs =
  let input = Array.of_list xs in
  let jobs = effective_jobs ?jobs (Array.length input) in
  if jobs <= 1 then List.map f xs
  else Array.to_list (pool_map_array ~jobs f input)

let init ?jobs n f =
  let jobs = effective_jobs ?jobs n in
  if jobs <= 1 then List.init n f
  else Array.to_list (pool_map_array ~jobs f (Array.init n Fun.id))

(* Contiguous balanced ranges: chunk p of [pieces] over [n] items is
   [p*n/pieces, (p+1)*n/pieces) — sizes differ by at most one and the
   concatenation covers [0, n) in order. *)
let range_bounds ~pieces n =
  Array.init pieces (fun p -> (p * n / pieces, (p + 1) * n / pieces))

let map_ranges ?jobs ?(chunks_per_job = 4) n f =
  if n <= 0 then []
  else
    let jobs = effective_jobs ?jobs n in
    if jobs <= 1 then [ f 0 n ]
    else
      let pieces = min n (jobs * chunks_per_job) in
      Array.to_list
        (pool_map_array ~jobs (fun (lo, hi) -> f lo hi) (range_bounds ~pieces n))
