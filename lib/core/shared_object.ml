type 'state t = {
  lock : Lock.t;
  state : 'state;
  completed : Sim.Event.t; (* some method call finished: guards may hold now *)
  mutable calls : int;
}

type client = Lock.holder

let create kernel ~name ~arbiter ?grant_overhead state =
  {
    lock = Lock.create kernel ~name ~arbiter ?grant_overhead ();
    state;
    completed = Sim.Event.create kernel ~name:(name ^ ".completed") ();
    calls = 0;
  }

let name t = Lock.name t.lock
let kernel t = Lock.kernel t.lock
let register_client t ~name ?overhead () =
  Lock.register t.lock ~name ?overhead ()
let peek t f = f t.state

let run_method t ?eet f =
  (match eet with Some d -> Eet.consume d | None -> ());
  let result = f t.state in
  t.calls <- t.calls + 1;
  Telemetry.Sink.incr ("so." ^ name t ^ ".calls");
  Sim.Event.notify t.completed;
  result

let call t client ?eet f =
  Lock.with_lock t.lock client (fun () -> run_method t ?eet f)

let call_guarded t client ~guard ?eet f =
  let blocked_since = ref None in
  let rec attempt () =
    Lock.acquire t.lock client;
    if guard t.state then begin
      (match !blocked_since with
      | None -> ()
      | Some since ->
        (* The whole closed-guard episode, first rejection to the
           grant where the guard finally held. *)
        let now_ps = Sim.Sim_time.to_ps (Sim.Kernel.now (kernel t)) in
        Telemetry.Span.complete ~ts_ps:since ~dur_ps:(now_ps - since)
          ~cat:"guard" ("blocked:" ^ name t));
      match run_method t ?eet f with
      | result ->
        Lock.release t.lock client;
        result
      | exception exn ->
        Lock.release t.lock client;
        raise exn
    end
    else begin
      if Telemetry.Sink.enabled () then begin
        Telemetry.Sink.incr ("so." ^ name t ^ ".guard_blocks");
        if !blocked_since = None then
          blocked_since :=
            Some (Sim.Sim_time.to_ps (Sim.Kernel.now (kernel t)))
      end;
      (* OSSS guard semantics: free the object so other clients can
         make the guard true, then retry after any completion. *)
      Lock.release t.lock client;
      Sim.Event.wait t.completed;
      attempt ()
    end
  in
  attempt ()

let calls t = t.calls
let total_wait t = Lock.total_wait t.lock
let total_busy t = Lock.total_held t.lock
