type holder = {
  id : int;
  hname : string;
  overhead : Sim.Sim_time.t;
  mutable resume : unit -> unit; (* while parked: resumes its [acquire] *)
}

let not_parked () = ()

type t = {
  kernel : Sim.Kernel.t;
  name : string;
  arbiter : Arbiter.t;
  grant_overhead : Sim.Sim_time.t;
  mutable owner : int; (* holder id, or [free] *)
  mutable pending : int list; (* arrival order *)
  mutable num_holders : int;
  parked : holder Queue.t; (* blocked in [acquire], in the order they blocked *)
  mutable total_wait : Sim.Sim_time.t;
  mutable total_held : Sim.Sim_time.t;
  mutable held_since : Sim.Sim_time.t;
}

let free = -1

let create kernel ~name ~arbiter ?(grant_overhead = Sim.Sim_time.zero) () =
  {
    kernel;
    name;
    arbiter;
    grant_overhead;
    owner = free;
    pending = [];
    num_holders = 0;
    parked = Queue.create ();
    total_wait = Sim.Sim_time.zero;
    total_held = Sim.Sim_time.zero;
    held_since = Sim.Sim_time.zero;
  }

let name t = t.name
let kernel t = t.kernel

let register t ~name ?(overhead = Sim.Sim_time.zero) () =
  let id = t.num_holders in
  t.num_holders <- id + 1;
  { id; hname = name; overhead; resume = not_parked }

let holder_id h = h.id

let remove_pending t id =
  t.pending <- List.filter (fun other -> other <> id) t.pending

(* The lock is free and the arbiter picks [holder] among the pending
   requests. *)
let grantable t holder =
  t.owner = free && Arbiter.choose t.arbiter ~pending:t.pending = holder.id

let acquire t holder =
  if t.owner = holder.id then
    invalid_arg (Printf.sprintf "Lock.acquire: %s re-acquires %s" holder.hname t.name);
  let started = Sim.Kernel.now t.kernel in
  t.pending <- t.pending @ [ holder.id ];
  while not (grantable t holder) do
    if holder.resume != not_parked then
      invalid_arg
        (Printf.sprintf "Lock.acquire: %s already waits for %s" holder.hname t.name);
    Sim.Kernel.suspend (fun resume ->
        holder.resume <- resume;
        Queue.push holder t.parked)
  done;
  t.owner <- holder.id;
  remove_pending t holder.id;
  Arbiter.note_grant t.arbiter holder.id;
  let waited = Sim.Sim_time.sub (Sim.Kernel.now t.kernel) started in
  t.total_wait <- Sim.Sim_time.add t.total_wait waited;
  if Telemetry.Sink.enabled () then begin
    let wait_ps = Sim.Sim_time.to_ps waited in
    Telemetry.Sink.incr
      (Printf.sprintf "lock.%s.grants.%s" t.name holder.hname);
    Telemetry.Sink.observe ("lock." ^ t.name ^ ".wait_ps") wait_ps;
    if wait_ps > 0 then
      (* Arbitration wait on the requester's own track: the span
         covers request-to-grant, so contention shows up next to
         the stage that suffered it. *)
      Telemetry.Span.complete
        ~ts_ps:(Sim.Sim_time.to_ps started)
        ~dur_ps:wait_ps ~cat:"arbitration" ("wait:" ^ t.name)
  end;
  let overhead = Sim.Sim_time.add t.grant_overhead holder.overhead in
  if not (Sim.Sim_time.is_zero overhead) then Sim.Kernel.wait_for overhead;
  t.held_since <- Sim.Kernel.now t.kernel

(* The holders parked when the lock was released take their turns in
   the order they parked, as if the release had woken them all. A
   holder is resumed only if the lock is free and the arbiter grants it
   at its turn; any other would wake, lose and park again, so it parks
   again without a resume. Once the lock is owned every remaining turn
   is such a loss, so they settle at once. *)
let wake t batch =
  Sim.Kernel.deliver t.kernel batch
    ~settle:(fun () ->
      t.owner <> free
      && begin
           Queue.transfer batch t.parked;
           true
         end)
    (fun holder ->
      if grantable t holder then begin
        let resume = holder.resume in
        holder.resume <- not_parked;
        resume ()
      end
      else Queue.push holder t.parked)

let release t holder =
  if t.owner <> holder.id then
    invalid_arg (Printf.sprintf "Lock.release: %s does not own %s" holder.hname t.name);
  t.owner <- free;
  let held = Sim.Sim_time.sub (Sim.Kernel.now t.kernel) t.held_since in
  t.total_held <- Sim.Sim_time.add t.total_held held;
  if Telemetry.Sink.enabled () then begin
    let held_ps = Sim.Sim_time.to_ps held in
    Telemetry.Sink.observe ("lock." ^ t.name ^ ".held_ps") held_ps;
    (* Busy span on the resource's own track. Grants are mutually
       exclusive, so these spans tile the track without overlap; the
       holder name labels who occupied the resource. *)
    if held_ps > 0 then
      Telemetry.Span.complete
        ~ts_ps:(Sim.Sim_time.to_ps t.held_since)
        ~dur_ps:held_ps ~track:t.name ~cat:"busy" holder.hname
  end;
  if not (Queue.is_empty t.parked) then begin
    let batch = Queue.create () in
    Queue.transfer t.parked batch;
    Sim.Kernel.schedule_delta t.kernel (fun () -> wake t batch)
  end

let with_lock t holder f =
  acquire t holder;
  match f () with
  | result ->
    release t holder;
    result
  | exception exn ->
    release t holder;
    raise exn

let total_wait t = t.total_wait
let total_held t = t.total_held
