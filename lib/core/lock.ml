type holder = {
  id : int;
  hname : string;
  overhead : Sim.Sim_time.t;
  grants_key : string; (* its grant counter *)
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
  wait_key : string; (* telemetry names, built once *)
  held_key : string;
  wait_span : string;
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
    wait_key = "lock." ^ name ^ ".wait_ps";
    held_key = "lock." ^ name ^ ".held_ps";
    wait_span = "wait:" ^ name;
  }

let name t = t.name
let kernel t = t.kernel

let register t ~name ?(overhead = Sim.Sim_time.zero) () =
  let id = t.num_holders in
  t.num_holders <- id + 1;
  {
    id;
    hname = name;
    overhead;
    grants_key = Printf.sprintf "lock.%s.grants.%s" t.name name;
    resume = not_parked;
  }

let holder_id h = h.id

let remove_pending t id =
  t.pending <- List.filter (fun other -> other <> id) t.pending

(* The lock is free and the arbiter picks [holder] among the pending
   requests. *)
let grantable t holder =
  t.owner = free && Arbiter.choose t.arbiter ~pending:t.pending = holder.id

(* The telemetry of one grant after a wait of [wait_ps] from
   [started_ps]. *)
let note_grant t holder ~started_ps wait_ps =
  Telemetry.Sink.incr holder.grants_key;
  Telemetry.Sink.observe t.wait_key wait_ps;
  if wait_ps > 0 then
    (* Arbitration wait on the requester's own track: the span covers
       request-to-grant, so contention shows up next to the stage that
       suffered it. *)
    Telemetry.Span.complete ~ts_ps:started_ps ~dur_ps:wait_ps ~cat:"arbitration"
      t.wait_span

(* The telemetry of one release after a hold of [held_ps] from
   [since_ps]. *)
let note_release t holder ~since_ps held_ps =
  Telemetry.Sink.observe t.held_key held_ps;
  (* Busy span on the resource's own track. Grants are mutually
     exclusive, so these spans tile the track without overlap; the
     holder name labels who occupied the resource. *)
  if held_ps > 0 then
    Telemetry.Span.complete ~ts_ps:since_ps ~dur_ps:held_ps ~track:t.name ~cat:"busy"
      holder.hname

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
  if Telemetry.Sink.enabled () then
    note_grant t holder ~started_ps:(Sim.Sim_time.to_ps started)
      (Sim.Sim_time.to_ps waited);
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
  if Telemetry.Sink.enabled () then
    note_release t holder ~since_ps:(Sim.Sim_time.to_ps t.held_since)
      (Sim.Sim_time.to_ps held);
  if not (Queue.is_empty t.parked) then begin
    let batch = Queue.create () in
    Queue.transfer t.parked batch;
    Sim.Kernel.schedule_delta t.kernel (fun () -> wake t batch)
  end

(* On a free lock with no request pending or parked and no overhead,
   [acquire] grants at once and waits for nothing, and [release] wakes
   no one. Back-to-back holds of [hold] then differ from one kernel
   step of [hold] each only in the bookkeeping done here, and the
   kernel takes as many of those steps as nothing else could run
   between. *)
let idle_grants t holder ~hold ~count =
  if
    t.owner <> free || t.pending <> []
    || (not (Queue.is_empty t.parked))
    || (not (Sim.Sim_time.is_zero t.grant_overhead))
    || not (Sim.Sim_time.is_zero holder.overhead)
  then 0
  else begin
    let start_ps = Sim.Sim_time.to_ps (Sim.Kernel.now t.kernel) in
    let granted = Sim.Kernel.advance_in_place t.kernel hold ~steps:count in
    if granted > 0 then begin
      Arbiter.note_grant t.arbiter holder.id;
      t.total_held <- Sim.Sim_time.add t.total_held (Sim.Sim_time.mul_int hold granted);
      if Telemetry.Sink.enabled () then begin
        let hold_ps = Sim.Sim_time.to_ps hold in
        for i = 0 to granted - 1 do
          note_grant t holder ~started_ps:0 0;
          note_release t holder ~since_ps:(start_ps + (i * hold_ps)) hold_ps
        done
      end
    end;
    granted
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
