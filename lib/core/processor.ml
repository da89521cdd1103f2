type t = { lock : Lock.t; clock_hz : int; mutable tasks : int }
type binding = Lock.holder

let create kernel ~name ~clock_hz ?(arbiter = Arbiter.create Arbiter.Fcfs) () =
  if clock_hz <= 0 then invalid_arg "Processor.create: clock_hz";
  { lock = Lock.create kernel ~name ~arbiter; clock_hz; tasks = 0 }

let add_sw_task t ~task_name =
  t.tasks <- t.tasks + 1;
  Lock.register t.lock ~name:task_name ()

let task_count t = t.tasks

let execute t binding duration =
  Lock.with_lock t.lock binding (fun () ->
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
