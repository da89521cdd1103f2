type pool = {
  mutex : Mutex.t;
  work : Condition.t; (* tasks were queued, or shutdown was requested *)
  finished : Condition.t; (* a batch completed *)
  tasks : (unit -> unit) Queue.t;
  mutable stop : bool;
  mutable workers : unit Domain.t array;
}

type t = Sequential | Pool of pool

let sequential = Sequential

(* Set in every worker domain: a [map] issued from inside a task runs
   sequentially on that worker instead of re-entering the queue, where
   it could wait on chunks no free worker is left to run. *)
let in_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let worker_loop p () =
  Domain.DLS.set in_worker true;
  let rec loop () =
    Mutex.lock p.mutex;
    while Queue.is_empty p.tasks && not p.stop do
      Condition.wait p.work p.mutex
    done;
    if Queue.is_empty p.tasks then Mutex.unlock p.mutex (* stop *)
    else begin
      let task = Queue.pop p.tasks in
      Mutex.unlock p.mutex;
      task ();
      loop ()
    end
  in
  loop ()

let create ~domains =
  if domains < 1 then invalid_arg "Par.Pool.create: domains < 1";
  let p =
    {
      mutex = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      tasks = Queue.create ();
      stop = false;
      workers = [||];
    }
  in
  p.workers <- Array.init domains (fun _ -> Domain.spawn (worker_loop p));
  Pool p

(* The calling domain helps drain the queue during [map], so [n] jobs
   need only [n - 1] spawned workers — one fewer domain for the
   stop-the-world GC to synchronise. *)
let of_jobs n =
  if n < 1 then invalid_arg "Par.Pool.of_jobs: jobs < 1"
  else if n = 1 then Sequential
  else create ~domains:(n - 1)

let parallelism = function
  | Sequential -> 1
  | Pool p -> Array.length p.workers + 1

let shutdown = function
  | Sequential -> ()
  | Pool p ->
    let workers =
      Mutex.lock p.mutex;
      p.stop <- true;
      Condition.broadcast p.work;
      let w = p.workers in
      p.workers <- [||];
      Mutex.unlock p.mutex;
      w
    in
    Array.iter Domain.join workers

(* Roughly four stealable chunks per domain: small enough that one
   expensive chunk cannot strand the batch behind a single domain,
   large enough that the atomic claim is amortised over real work. *)
let default_chunk ~n ~parallelism = Stdlib.max 1 (n / (parallelism * 4))

(* The work-stealing batch engine shared by [map] and [iter]: the
   items are cut into fixed-size chunks and every participating domain
   claims the next unclaimed chunk from one atomic cursor until none
   are left. Which domain runs which chunk is scheduling-dependent;
   what each chunk computes (and where its results land) depends only
   on the chunk index, so batches stay deterministic. [run_range lo hi
   cidx] must confine its effects to chunk [cidx] / items [lo, hi).
   Returns the number of chunks claimed by spawned workers. *)
let run_batch p ~n ~chunk ~run_range =
  let nchunks = (n + chunk - 1) / chunk in
  let next = Atomic.make 0 in
  let stolen = Atomic.make 0 in
  let remaining = ref nchunks in
  let error = ref None in
  let exec c =
    (try run_range (c * chunk) (Stdlib.min n ((c + 1) * chunk)) c
     with e ->
       Mutex.lock p.mutex;
       if !error = None then error := Some e;
       Mutex.unlock p.mutex);
    Mutex.lock p.mutex;
    remaining := !remaining - 1;
    if !remaining = 0 then Condition.broadcast p.finished;
    Mutex.unlock p.mutex
  in
  let drain ~count_steals () =
    let rec loop claimed =
      let c = Atomic.fetch_and_add next 1 in
      if c < nchunks then begin
        exec c;
        loop (claimed + 1)
      end
      else if count_steals && claimed > 0 then
        ignore (Atomic.fetch_and_add stolen claimed : int)
    in
    loop 0
  in
  Mutex.lock p.mutex;
  (* One drain task per worker that could usefully claim a chunk; the
     caller takes the rest. A drain that arrives after the cursor is
     exhausted exits without touching the batch. *)
  for _ = 1 to Stdlib.min (Array.length p.workers) (nchunks - 1) do
    Queue.push (drain ~count_steals:true) p.tasks
  done;
  Condition.broadcast p.work;
  Mutex.unlock p.mutex;
  (* The caller claims chunks too — flagged as a worker so nested maps
     inside [run_range] degrade to sequential — then sleeps until the
     stragglers on other domains finish. *)
  Domain.DLS.set in_worker true;
  drain ~count_steals:false ();
  Domain.DLS.set in_worker false;
  Mutex.lock p.mutex;
  while !remaining > 0 do
    Condition.wait p.finished p.mutex
  done;
  Mutex.unlock p.mutex;
  (match !error with Some e -> raise e | None -> ());
  Atomic.get stolen

let checked_chunk = function
  | Some c when c < 1 -> invalid_arg "Par.Pool: chunk < 1"
  | c -> c

let batch_telemetry ~nchunks ~chunk ~stolen =
  Telemetry.Sink.incr ~by:nchunks "par.map.chunks";
  Telemetry.Sink.incr ~by:stolen "par.map.steals";
  Telemetry.Sink.observe "par.map.chunk_sizes" chunk

let map ?chunk t arr f =
  let chunk = checked_chunk chunk in
  match t with
  | Sequential ->
    (* Pool-phase attribution, counted on the caller's domain (worker
       domains carry no sink, so nested maps cost one branch). *)
    Telemetry.Sink.incr "par.map.calls";
    Telemetry.Sink.incr ~by:(Array.length arr) "par.map.jobs";
    Telemetry.Sink.incr "par.map.sequential";
    Array.map f arr
  | Pool _ when Domain.DLS.get in_worker -> Array.map f arr
  | Pool p ->
    let n = Array.length arr in
    Telemetry.Sink.incr "par.map.calls";
    Telemetry.Sink.incr ~by:n "par.map.jobs";
    if n = 0 then [||]
    else begin
      if p.stop then invalid_arg "Par.Pool.map: pool is shut down";
      let chunk =
        match chunk with
        | Some c -> c
        | None -> default_chunk ~n ~parallelism:(Array.length p.workers + 1)
      in
      let nchunks = (n + chunk - 1) / chunk in
      let parts = Array.make nchunks [||] in
      let run_range lo hi c =
        parts.(c) <- Array.init (hi - lo) (fun i -> f arr.(lo + i))
      in
      let stolen = run_batch p ~n ~chunk ~run_range in
      batch_telemetry ~nchunks ~chunk ~stolen;
      if nchunks = 1 then parts.(0) else Array.concat (Array.to_list parts)
    end

let iter ?chunk t arr f =
  let chunk = checked_chunk chunk in
  match t with
  | Sequential ->
    Telemetry.Sink.incr "par.map.calls";
    Telemetry.Sink.incr ~by:(Array.length arr) "par.map.jobs";
    Telemetry.Sink.incr "par.map.sequential";
    Array.iter f arr
  | Pool _ when Domain.DLS.get in_worker -> Array.iter f arr
  | Pool p ->
    let n = Array.length arr in
    Telemetry.Sink.incr "par.map.calls";
    Telemetry.Sink.incr ~by:n "par.map.jobs";
    if n = 0 then ()
    else begin
      if p.stop then invalid_arg "Par.Pool.map: pool is shut down";
      let chunk =
        match chunk with
        | Some c -> c
        | None -> default_chunk ~n ~parallelism:(Array.length p.workers + 1)
      in
      let nchunks = (n + chunk - 1) / chunk in
      let run_range lo hi _ =
        for i = lo to hi - 1 do
          f arr.(i)
        done
      in
      let stolen = run_batch p ~n ~chunk ~run_range in
      batch_telemetry ~nchunks ~chunk ~stolen
    end

let with_jobs n f =
  let t = of_jobs n in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
