type t = {
  lock : Lock.t;
  clock_hz : int;
  context_switch : Sim.Sim_time.t;
  mutable last_ran : int option;
  mutable tasks : int;
}

type binding = Lock.holder

let create kernel ~name ~clock_hz ?(context_switch = Sim.Sim_time.zero)
    ?(arbiter = Arbiter.create Arbiter.Fcfs) () =
  if clock_hz <= 0 then invalid_arg "Processor.create: clock_hz";
  {
    lock = Lock.create kernel ~name ~arbiter ();
    clock_hz;
    context_switch;
    last_ran = None;
    tasks = 0;
  }

let name t = Lock.name t.lock

let add_sw_task t ~task_name =
  t.tasks <- t.tasks + 1;
  Lock.register t.lock ~name:task_name ()

let task_count t = t.tasks

let execute t binding duration =
  Lock.with_lock t.lock binding (fun () ->
      let id = Lock.holder_id binding in
      if t.last_ran <> Some id && t.last_ran <> None then begin
        Telemetry.Sink.incr ("processor." ^ name t ^ ".context_switches");
        Eet.consume t.context_switch
      end;
      t.last_ran <- Some id;
      Eet.consume duration;
      (* Stall jitter fault model: extra pipeline-stall cycles charged
         to this EET slice, at the processor's own clock. *)
      match Fault_hooks.stall () with
      | None -> ()
      | Some f ->
        let cycles = f ~proc:(Lock.name t.lock) in
        if cycles > 0 then
          Eet.consume (Sim.Sim_time.cycles ~hz:t.clock_hz cycles))

let busy_time t = Lock.total_held t.lock
let wait_time t = Lock.total_wait t.lock
