(* Reference oracle for [Osss.Lock]: the broadcast lock it replaced.
   A release notifies one [released] event, which wakes every parked
   holder in the next delta cycle; each re-runs the arbiter and all but
   the granted one park again. [Osss.Lock] resumes only the holder that
   wins, and test_osss checks that it grants the same holders at the
   same instants. Kept as it was, apart from qualifying [Osss.Arbiter]
   and dropping the lock-level grant overhead [Osss.Lock] no longer
   has. *)

type t = {
  kernel : Sim.Kernel.t;
  name : string;
  arbiter : Osss.Arbiter.t;
  mutable owner : int option;
  mutable pending : int list; (* arrival order *)
  mutable num_holders : int;
  released : Sim.Event.t;
  mutable total_wait : Sim.Sim_time.t;
  mutable total_held : Sim.Sim_time.t;
  mutable held_since : Sim.Sim_time.t;
}

type holder = { id : int; hname : string; overhead : Sim.Sim_time.t }

let create kernel ~name ~arbiter =
  {
    kernel;
    name;
    arbiter;
    owner = None;
    pending = [];
    num_holders = 0;
    released = Sim.Event.create kernel ~name:(name ^ ".released") ();
    total_wait = Sim.Sim_time.zero;
    total_held = Sim.Sim_time.zero;
    held_since = Sim.Sim_time.zero;
  }

let name t = t.name
let kernel t = t.kernel

let register t ~name ?(overhead = Sim.Sim_time.zero) () =
  let id = t.num_holders in
  t.num_holders <- id + 1;
  { id; hname = name; overhead }

let holder_id h = h.id

let remove_pending t id =
  t.pending <- List.filter (fun other -> other <> id) t.pending

let acquire t holder =
  if t.owner = Some holder.id then
    invalid_arg (Printf.sprintf "Lock.acquire: %s re-acquires %s" holder.hname t.name);
  let started = Sim.Kernel.now t.kernel in
  t.pending <- t.pending @ [ holder.id ];
  let rec attempt () =
    let granted =
      t.owner = None
      && Osss.Arbiter.choose t.arbiter ~pending:t.pending = holder.id
    in
    if granted then begin
      t.owner <- Some holder.id;
      remove_pending t holder.id;
      Osss.Arbiter.note_grant t.arbiter holder.id;
      let waited =
        Sim.Sim_time.sub (Sim.Kernel.now t.kernel) started
      in
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
      if not (Sim.Sim_time.is_zero holder.overhead) then
        Sim.Kernel.wait_for holder.overhead;
      t.held_since <- Sim.Kernel.now t.kernel
    end
    else begin
      Sim.Event.wait t.released;
      attempt ()
    end
  in
  attempt ()

let release t holder =
  if t.owner <> Some holder.id then
    invalid_arg (Printf.sprintf "Lock.release: %s does not own %s" holder.hname t.name);
  t.owner <- None;
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
  Sim.Event.notify t.released

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
