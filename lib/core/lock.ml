type holder = {
  id : int;
  hname : string;
  overhead : Sim.Sim_time.t;
  grants_key : string; (* its grant counter *)
  mutable resume : unit -> unit; (* while parked: resumes its [acquire] *)
  mutable proc : Sim.Kernel.proc; (* while parked: its process *)
  mutable requested : int; (* ps: the instant of its pending request *)
  mutable hold : int; (* ps: in a grant run, the length of each hold *)
  mutable left : int;
      (* in a grant run, the holds it still wants, the one requested or
         held included; 0 outside *)
}

let not_parked () = ()

type t = {
  kernel : Sim.Kernel.t;
  name : string;
  arbiter : Arbiter.t;
  mutable owner : int; (* holder id, or [free] *)
  mutable pending : int list; (* arrival order *)
  mutable holders : holder array; (* by id *)
  parked : holder Queue.t; (* blocked in [acquire], in the order they blocked *)
  mutable total_wait : int; (* ps *)
  mutable total_held : int; (* ps *)
  mutable held_since : int; (* ps *)
  mutable turns : holder array;
      (* one rotation's grantees, in grant order; [plan] fills it *)
  mutable rotated : int list; (* the pending list after that rotation *)
  mutable period : int; (* ps: that rotation's length *)
  wait_key : string; (* telemetry names, built once *)
  held_key : string;
  wait_span : string;
}

let free = -1

let create kernel ~name ~arbiter =
  {
    kernel;
    name;
    arbiter;
    owner = free;
    pending = [];
    holders = [||];
    parked = Queue.create ();
    total_wait = 0;
    total_held = 0;
    held_since = 0;
    turns = [||];
    rotated = [];
    period = 0;
    wait_key = "lock." ^ name ^ ".wait_ps";
    held_key = "lock." ^ name ^ ".held_ps";
    wait_span = "wait:" ^ name;
  }

let name t = t.name
let kernel t = t.kernel

let register t ~name ?(overhead = Sim.Sim_time.zero) () =
  let holder =
    {
      id = Array.length t.holders;
      hname = name;
      overhead;
      grants_key = Printf.sprintf "lock.%s.grants.%s" t.name name;
      resume = not_parked;
      proc = Sim.Kernel.running t.kernel;
      requested = 0;
      hold = 0;
      left = 0;
    }
  in
  t.holders <- Array.append t.holders [| holder |];
  t.turns <- Array.make (Array.length t.holders) holder;
  holder

let now_ps t = Sim.Sim_time.to_ps (Sim.Kernel.now t.kernel)

(* [l] without [id], sharing the tail after it. *)
let rec remove id = function
  | [] -> []
  | other :: rest -> if other = id then rest else other :: remove id rest

(* [h] is among the first [m] grantees of the rotation in [t.turns]. *)
let rec took_turn t h m = m > 0 && (t.turns.(m - 1) == h || took_turn t h (m - 1))

(* The lock is free and the arbiter picks [holder] among the pending
   requests. *)
let grantable t holder =
  t.owner = free && Arbiter.choose t.arbiter ~pending:t.pending = holder.id

(* The telemetry of one grant after a wait of [wait_ps] from
   [started_ps]. [track] is the holder's own track when another
   process grants on its behalf. *)
let note_grant ?track t holder ~started_ps wait_ps =
  Telemetry.Sink.incr holder.grants_key;
  Telemetry.Sink.observe t.wait_key wait_ps;
  if wait_ps > 0 then
    (* Arbitration wait on the requester's own track: the span covers
       request-to-grant, so contention shows up next to the stage that
       suffered it. *)
    Telemetry.Span.complete ?track ~ts_ps:started_ps ~dur_ps:wait_ps ~cat:"arbitration"
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
  holder.requested <- now_ps t;
  t.pending <- t.pending @ [ holder.id ];
  while not (grantable t holder) do
    if holder.resume != not_parked then
      invalid_arg
        (Printf.sprintf "Lock.acquire: %s already waits for %s" holder.hname t.name);
    holder.proc <- Sim.Kernel.running t.kernel;
    Sim.Kernel.suspend (fun resume ->
        holder.resume <- resume;
        Queue.push holder t.parked)
  done;
  t.owner <- holder.id;
  t.pending <- remove holder.id t.pending;
  Arbiter.note_grant t.arbiter holder.id;
  (* Read from the record: while parked, the holder may have been
     granted, and have requested again, in another holder's
     rotations. *)
  let started = holder.requested in
  let waited = now_ps t - started in
  t.total_wait <- t.total_wait + waited;
  if Telemetry.Sink.enabled () then note_grant t holder ~started_ps:started waited;
  if not (Sim.Sim_time.is_zero holder.overhead) then Sim.Kernel.wait_for holder.overhead;
  t.held_since <- now_ps t

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
  let held = now_ps t - t.held_since in
  t.total_held <- t.total_held + held;
  if Telemetry.Sink.enabled () then note_release t holder ~since_ps:t.held_since held;
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

(* -- Rotations ------------------------------------------------------- *)

(* [x] owns the lock, granted at [now], and its hold would advance in
   place. What follows, up to the arbiter picking [x] again, is one
   rotation: [x] holds, releases and requests again; the arbiter picks
   a parked holder, which is resumed in the next delta cycle, holds in
   place, releases and requests again; and so on. When every grantee
   is in a grant run with a hold left after the granted one, none of
   them leaves the lock's code, and the rotation is fixed in advance.

   [plan t x ~last] works it out on a copy of the pending list. It
   puts the other grantees in [t.turns], the pending list the rotation
   ends with in [t.rotated] and its length in [t.period], and returns
   their number: [0] when no one else is pending. It returns [-1] when
   the rotation may not be taken: a hold would end after [last] (the
   kernel's in-place limit), a grantee has an overhead, holds for no
   time or would take its last hold, the arbiter would hand the lock
   straight back to the holder that released it while others wait, or
   the parked holders would not take exactly one turn each (FCFS and
   round robin always give each one). The arbiter is left noting [x],
   as it is after a whole rotation. *)
let plan t x ~last =
  let rec turn pending releaser time m =
    let g = Arbiter.choose t.arbiter ~pending in
    if g = x.id && (releaser <> x.id || pending = [ x.id ]) then begin
      t.rotated <- remove x.id pending;
      t.period <- time - now_ps t;
      if m = Queue.length t.parked then m else -1
    end
    else if g = releaser then -1
    else begin
      let h = t.holders.(g) in
      let time = time + h.hold in
      if
        h.left < 2 || h.hold = 0
        || (not (Sim.Sim_time.is_zero h.overhead))
        || time > last || took_turn t h m
      then -1
      else begin
        Arbiter.note_grant t.arbiter g;
        t.turns.(m) <- h;
        turn (remove g pending @ [ g ]) g time (m + 1)
      end
    end
  in
  let time = now_ps t + x.hold in
  let m = if time > last then -1 else turn (t.pending @ [ x.id ]) x.id time 0 in
  Arbiter.note_grant t.arbiter x.id;
  m

(* How many times in a row the rotation [plan] returned [m] for is
   taken. Once, unless it leaves the pending list as it found it: the
   arbiter notes [x] at both ends, so the next [plan] would return the
   same rotation, [t.period] later, until [x] or a grantee would take
   its last hold or a hold would end after [last]. *)
let repeats t x m ~last =
  if not (List.equal Int.equal t.rotated t.pending) then 1
  else begin
    let k = ref (Stdlib.min (x.left - 1) ((last - now_ps t) / t.period)) in
    for i = 0 to m - 1 do
      k := Stdlib.min !k (t.turns.(i).left - 1)
    done;
    !k
  end

(* Takes [k] times in a row the rotation [plan] returned [m] for: the
   bookkeeping of every grant and release in them, the kernel's of
   every hold and hand-off, and under a sink the telemetry of each
   grant and release, in order. [x] holds first. In the first rotation
   each grantee waits from the request its record holds, in the later
   ones from its release a rotation before; [x] always waits for the
   others' holds. With nobody parked, [x] is granted again as it
   releases, and each of its holds is an in-place step. Otherwise [x]
   parks, and its hold and the last grantee's hand-off back to it cost
   one hand-off of its hold. *)
let take t x m k =
  let kernel = t.kernel in
  let running = Sim.Kernel.running kernel in
  let start = now_ps t and period = t.period in
  if Telemetry.Sink.enabled () then
    for r = 0 to k - 1 do
      let since_ps = start + (r * period) in
      note_release t x ~since_ps x.hold;
      let time = ref (since_ps + x.hold) in
      for i = 0 to m - 1 do
        let g = t.turns.(i) in
        let started_ps = if r = 0 then g.requested else !time - period + g.hold in
        note_grant t g
          ~track:(Sim.Kernel.proc_name g.proc)
          ~started_ps (!time - started_ps);
        note_release t g ~since_ps:!time g.hold;
        time := !time + g.hold
      done;
      note_grant t x
        ~track:(Sim.Kernel.proc_name running)
        ~started_ps:(since_ps + x.hold) (period - x.hold)
    done;
  let hold = Sim.Sim_time.of_ps x.hold in
  if m = 0 then ignore (Sim.Kernel.advance_in_place kernel hold ~steps:k : int)
  else Sim.Kernel.hand_off kernel running hold ~count:k;
  t.total_held <- t.total_held + (k * period);
  t.total_wait <- t.total_wait + (k * (period - x.hold));
  let time = ref (start + x.hold) in
  for i = 0 to m - 1 do
    let g = t.turns.(i) in
    Sim.Kernel.hand_off kernel g.proc (Sim.Sim_time.of_ps g.hold) ~count:k;
    t.total_wait <- t.total_wait + (!time - g.requested) + ((k - 1) * (period - g.hold));
    time := !time + g.hold;
    g.left <- g.left - k;
    g.requested <- !time + ((k - 1) * period)
  done;
  x.left <- x.left - k;
  x.requested <- start + ((k - 1) * period) + x.hold;
  t.held_since <- start + (k * period);
  (* Each parked holder took one turn a rotation. It parked again when
     it released, and the one it handed to left the queue, so the
     grantees end up parked in reverse grant order. *)
  Queue.clear t.parked;
  for i = m - 1 downto 0 do
    Queue.push t.turns.(i) t.parked
  done;
  t.pending <- t.rotated

(* [x] owns the lock, granted at [now]: take every whole rotation that
   fits in place. *)
let rotations t x =
  if x.left >= 2 && Sim.Sim_time.is_zero x.overhead then begin
    let last = Sim.Kernel.in_place_limit t.kernel (Sim.Sim_time.of_ps x.hold) in
    if last >= 0 then begin
      let m = ref (plan t x ~last) in
      while !m >= 0 do
        take t x !m (repeats t x !m ~last);
        m := if x.left >= 2 then plan t x ~last else -1
      done
    end
  end

let grant_run t holder ~hold ~count =
  if count > 0 then begin
    holder.hold <- Sim.Sim_time.to_ps hold;
    holder.left <- count;
    acquire t holder;
    while holder.left > 0 do
      rotations t holder;
      (* One hold the per-grant way: what no rotation may take. *)
      (match if not (Sim.Sim_time.is_zero hold) then Sim.Kernel.wait_for hold with
      | () -> release t holder
      | exception exn ->
        holder.left <- 0;
        release t holder;
        raise exn);
      holder.left <- holder.left - 1;
      if holder.left > 0 then acquire t holder
    done
  end

let total_wait t = Sim.Sim_time.of_ps t.total_wait
let total_held t = Sim.Sim_time.of_ps t.total_held
