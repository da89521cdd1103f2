type comm = Direct | Rmi of Osss.Channel.transport

type rig = {
  link_sw : int -> comm;
  link_idwt : comm;
  link_params : comm;
  map_task : int -> Osss.Sw_task.t -> unit;
  coeff_buffer_pass : words:int -> Sim.Sim_time.t;
  payload_words : int;
  sw_grant_overhead : clients:int -> Sim.Sim_time.t;
  transports : Osss.Channel.transport list;
}

let application_rig =
  {
    link_sw = (fun _ -> Direct);
    link_idwt = Direct;
    link_params = Direct;
    map_task = (fun _ _ -> ());
    coeff_buffer_pass = (fun ~words:_ -> Sim.Sim_time.zero);
    payload_words = 0;
    sw_grant_overhead = (fun ~clients -> Profile.so_grant_overhead ~clients);
    transports = [];
  }

(* One method invocation over a (possibly refined) communication
   link. [pad] adds the full-resolution payload transfer a refined
   data-carrying call performs on top of its control words. *)
let invoke comm so client ?guard ?eet ~name ?(pad = 0) body arg =
  match comm with
  | Direct -> (
    let wrapped state = body state arg in
    match guard with
    | None -> Osss.Shared_object.call so client ?eet wrapped
    | Some g -> Osss.Shared_object.call_guarded so client ~guard:g ?eet wrapped)
  | Rmi transport ->
    let execution_time =
      match eet with Some t -> Some (fun _ -> t) | None -> None
    in
    let m =
      Osss.Channel.rmi_method ~name ~args:Osss.Serialisation.int
        ~ret:Osss.Serialisation.int ?execution_time
        (fun state a -> body state a)
    in
    let result =
      match guard with
      | None -> Osss.Channel.rmi_call transport so client m arg
      | Some g -> Osss.Channel.rmi_call_guarded transport so client ~guard:g m arg
    in
    if pad > 0 then Osss.Channel.payload_transfer transport ~words:pad;
    result

(* -- run scaffolding ------------------------------------------------ *)

(* Per-run deadline monitor: wraps each IDWT service interval in
   [Eet.ret_check] against the per-tile deadline — counting misses
   without consuming simulated time, so a clean run's timing is
   untouched. *)
type monitor = { deadline : Sim.Sim_time.t; mutable misses : int }

let make_monitor ?deadline mode =
  {
    deadline =
      (match deadline with
      | Some d -> d
      | None -> Profile.idwt_deadline mode);
    misses = 0;
  }

let monitored mon f =
  let v, held = Osss.Eet.ret_check ~label:"idwt" mon.deadline f in
  if not held then mon.misses <- mon.misses + 1;
  v

(* Decoder-stage span on the running process's track. The "idwt" span
   deliberately wraps the same region as [monitored]/[Meter.measure],
   so the union of "idwt" spans in a trace equals the outcome's
   [idwt_ms] — the telemetry tests assert on this. *)
let stage kernel name f =
  if not (Telemetry.Sink.enabled ()) then f ()
  else begin
    let ts_ps = Sim.Sim_time.to_ps (Sim.Kernel.now kernel) in
    let result = f () in
    let now_ps = Sim.Sim_time.to_ps (Sim.Kernel.now kernel) in
    Telemetry.Span.complete ~ts_ps ~dur_ps:(now_ps - ts_ps) ~cat:"stage" name;
    result
  end

let finish ~version ~kernel ~workload ~meter ?(monitor = None)
    ?(transports = []) () =
  let crc_errors = ref 0 and retries = ref 0 and giveups = ref 0 in
  let retry_time = ref Sim.Sim_time.zero in
  List.iter
    (fun tr ->
      let s = Osss.Channel.stats tr in
      crc_errors := !crc_errors + s.Osss.Channel.crc_errors;
      retries := !retries + s.Osss.Channel.retries;
      giveups := !giveups + s.Osss.Channel.giveups;
      retry_time := Sim.Sim_time.add !retry_time s.Osss.Channel.retry_time)
    transports;
  let telemetry =
    match Telemetry.Sink.active () with
    | None -> Telemetry.Report.empty
    | Some sink ->
      Telemetry.Sink.set_gauge "kernel.delta_cycles"
        (Sim.Kernel.delta_count kernel);
      Telemetry.Sink.set_gauge "kernel.time_advances"
        (Sim.Kernel.time_advances kernel);
      Telemetry.Sink.report sink
  in
  {
    Outcome.version;
    mode = Workload.mode workload;
    decode_ms = Sim.Sim_time.to_float_ms (Sim.Kernel.now kernel);
    idwt_ms = Meter.busy_ms meter;
    idwt_calls = Meter.count meter;
    functional_ok = Workload.check workload;
    resilience =
      {
        Outcome.deadline_misses =
          (match monitor with Some m -> m.misses | None -> 0);
        crc_errors = !crc_errors;
        retries = !retries;
        giveups = !giveups;
        retry_ms = Sim.Sim_time.to_float_ms !retry_time;
        concealed_blocks = Workload.concealed_blocks workload;
        concealed_tiles = Workload.concealed_tiles workload;
      };
    telemetry;
  }

let partition ~sw_tasks ~tiles task =
  (* Contiguous slices, remainder to the first tasks. *)
  let base = tiles / sw_tasks and extra = tiles mod sw_tasks in
  let start = (task * base) + Stdlib.min task extra in
  let count = base + (if task < extra then 1 else 0) in
  List.init count (fun j -> start + j)

(* -- version 1: software only --------------------------------------- *)

let run_sw_only ~version ?idwt_deadline w =
  let kernel = Sim.Kernel.create () in
  let meter = Meter.create kernel in
  let mon = make_monitor ?deadline:idwt_deadline (Workload.mode w) in
  let times = Profile.sw (Workload.mode w) in
  let _task =
    Osss.Sw_task.create kernel ~name:"decoder" (fun task ->
        for i = 0 to Workload.tile_count w - 1 do
          stage kernel "decode" (fun () ->
              Osss.Sw_task.eet task
                (Profile.sw_decode_time (Workload.mode w) ~tile:i) (fun () ->
                  Workload.stage_decode w i));
          stage kernel "iq" (fun () ->
              Osss.Sw_task.eet task times.Profile.t_iq (fun () ->
                  Workload.stage_iq w i));
          stage kernel "idwt" (fun () ->
              monitored mon (fun () ->
                  Meter.measure meter (fun () ->
                      Osss.Sw_task.eet task times.Profile.t_idwt (fun () ->
                          Workload.stage_idwt w i))));
          stage kernel "ict" (fun () ->
              Osss.Sw_task.eet task times.Profile.t_ict (fun () ->
                  Workload.stage_ict_dc w i));
          stage kernel "dc_shift" (fun () ->
              Osss.Sw_task.consume task times.Profile.t_dc_shift)
        done)
  in
  Sim.Kernel.run kernel;
  finish ~version ~kernel ~workload:w ~meter ~monitor:(Some mon) ()

(* -- versions 2 and 4: blocking IQ+IDWT co-processor ----------------- *)

let run_coprocessor ~version ~sw_tasks ?(rig = fun _ -> application_rig)
    ?idwt_deadline w =
  let kernel = Sim.Kernel.create () in
  let rig = rig kernel in
  let meter = Meter.create kernel in
  let mode = Workload.mode w in
  let mon = make_monitor ?deadline:idwt_deadline mode in
  let sw_times = Profile.sw mode and hw_times = Profile.hw mode in
  let so =
    Osss.Shared_object.create kernel ~name:"iq_idwt_coproc"
      ~arbiter:(Osss.Arbiter.create Osss.Arbiter.Fcfs)
      ()
  in
  for t = 0 to sw_tasks - 1 do
    let client =
      Osss.Shared_object.register_client so ~name:(Printf.sprintf "sw%d" t)
        ~overhead:(rig.sw_grant_overhead ~clients:sw_tasks)
        ()
    in
    let comm = rig.link_sw t in
    let tiles = partition ~sw_tasks ~tiles:(Workload.tile_count w) t in
    let task =
      Osss.Sw_task.create kernel ~name:(Printf.sprintf "decoder%d" t)
        (fun task ->
          List.iter
            (fun i ->
              stage kernel "decode" (fun () ->
                  Osss.Sw_task.eet task
                    (Profile.sw_decode_time mode ~tile:i) (fun () ->
                      Workload.stage_decode w i));
              stage kernel "iq" (fun () ->
                  ignore
                    (invoke comm so client ~eet:hw_times.Profile.t_iq
                       ~name:"iq" ~pad:rig.payload_words
                       (fun () j ->
                         Workload.stage_iq w j;
                         j)
                       i));
              stage kernel "idwt" (fun () ->
                  monitored mon (fun () ->
                      Meter.measure meter (fun () ->
                          ignore
                            (invoke comm so client
                               ~eet:hw_times.Profile.t_idwt ~name:"idwt"
                               ~pad:rig.payload_words
                               (fun () j ->
                                 Workload.stage_idwt w j;
                                 j)
                               i))));
              stage kernel "ict" (fun () ->
                  Osss.Sw_task.eet task sw_times.Profile.t_ict (fun () ->
                      Workload.stage_ict_dc w i));
              stage kernel "dc_shift" (fun () ->
                  Osss.Sw_task.consume task sw_times.Profile.t_dc_shift))
            tiles)
    in
    rig.map_task t task
  done;
  Sim.Kernel.run kernel;
  finish ~version ~kernel ~workload:w ~meter ~monitor:(Some mon)
    ~transports:rig.transports ()

(* -- versions 3/5 and their VTA refinements: pipelined structure ----- *)

(* HW/SW Shared Object: carries tiles between SW and the IDWT blocks
   and implements the IQ algorithm. *)
type hwsw_state = { pending : int Queue.t; ready : int Queue.t }

(* IDWT-params Shared Object: parameter exchange and arbitration
   between the three IDWT components. *)
type params_state = {
  requests : (int * int) Queue.t; (* tile, filter tag (0 = 5/3, 1 = 9/7) *)
  finished : int Queue.t;
}

let queue_exists q pred = Queue.fold (fun acc x -> acc || pred x) false q

let run_pipeline ~version ~sw_tasks ?(rig = fun _ -> application_rig)
    ?(so_policy = Osss.Arbiter.Fcfs) ?idwt_deadline w =
  let kernel = Sim.Kernel.create () in
  let rig = rig kernel in
  let meter = Meter.create kernel in
  let mode = Workload.mode w in
  let mon = make_monitor ?deadline:idwt_deadline mode in
  let sw_times = Profile.sw mode and hw_times = Profile.hw mode in
  let tile_count = Workload.tile_count w in
  let filter_tag =
    match mode with Jpeg2000.Codestream.Lossless -> 0 | Jpeg2000.Codestream.Lossy -> 1
  in
  (* 7 clients in the 4-task configuration, 4 in the 1-task one —
     the client counts the paper quotes for versions 5 and 3. *)
  let hwsw_clients = sw_tasks + 3 in
  let hwsw =
    Osss.Shared_object.create kernel ~name:"hwsw_so"
      ~arbiter:(Osss.Arbiter.create so_policy)
      { pending = Queue.create (); ready = Queue.create () }
  in
  let params =
    Osss.Shared_object.create kernel ~name:"idwt_params_so"
      ~arbiter:(Osss.Arbiter.create Osss.Arbiter.Fcfs)
      { requests = Queue.create (); finished = Queue.create () }
  in
  (* --- software side ------------------------------------------------ *)
  for t = 0 to sw_tasks - 1 do
    let client =
      Osss.Shared_object.register_client hwsw ~name:(Printf.sprintf "sw%d" t)
        ~overhead:(rig.sw_grant_overhead ~clients:hwsw_clients)
        ()
    in
    let comm = rig.link_sw t in
    let tiles = partition ~sw_tasks ~tiles:tile_count t in
    let task =
      Osss.Sw_task.create kernel ~name:(Printf.sprintf "decoder%d" t)
        (fun task ->
          (* Phase 1: decode tiles, feeding the hardware pipeline. *)
          List.iter
            (fun i ->
              stage kernel "decode" (fun () ->
                  Osss.Sw_task.eet task
                    (Profile.sw_decode_time mode ~tile:i) (fun () ->
                      Workload.stage_decode w i));
              ignore
                (invoke comm hwsw client ~name:"put_pending"
                   ~pad:rig.payload_words
                   (fun st j ->
                     Queue.push j st.pending;
                     j)
                   i))
            tiles;
          (* Phase 2: collect finished tiles (any order), ICT + DC. *)
          List.iter
            (fun _ ->
              let j =
                invoke comm hwsw client ~name:"take_ready"
                  ~guard:(fun st -> not (Queue.is_empty st.ready))
                  ~pad:rig.payload_words
                  (fun st _ -> Queue.pop st.ready)
                  0
              in
              stage kernel "ict" (fun () ->
                  Osss.Sw_task.eet task sw_times.Profile.t_ict (fun () ->
                      Workload.stage_ict_dc w j));
              stage kernel "dc_shift" (fun () ->
                  Osss.Sw_task.consume task sw_times.Profile.t_dc_shift))
            tiles)
    in
    rig.map_task t task
  done;
  (* --- hardware side ------------------------------------------------ *)
  let idwt2d_client =
    Osss.Shared_object.register_client hwsw ~name:"idwt2d" ()
  in
  let filter_clients =
    Array.init 2 (fun tag ->
        Osss.Shared_object.register_client hwsw
          ~name:(if tag = 0 then "idwt53" else "idwt97")
          ())
  in
  let params_control =
    Osss.Shared_object.register_client params ~name:"idwt2d" ()
  in
  let params_filters =
    Array.init 2 (fun tag ->
        Osss.Shared_object.register_client params
          ~name:(if tag = 0 then "idwt53" else "idwt97")
          ())
  in
  let idwt2d = Osss.Hw_module.create kernel ~name:"idwt2d" ~clock_hz:Profile.clock_hz () in
  Osss.Hw_module.add_process idwt2d ~name:"control" (fun () ->
      for _ = 1 to tile_count do
        (* Take a decoded tile; the IQ algorithm runs inside the
           Shared Object. *)
        let i =
          stage kernel "iq" (fun () ->
              invoke rig.link_idwt hwsw idwt2d_client ~name:"take_pending"
                ~guard:(fun st -> not (Queue.is_empty st.pending))
                ~eet:hw_times.Profile.t_iq
                (fun st _ ->
                  let j = Queue.pop st.pending in
                  Workload.stage_iq w j;
                  j)
                0)
        in
        (* Hand the tile to the mode's filter bank via the params SO. *)
        ignore
          (invoke rig.link_params params params_control ~name:"put_params"
             (fun st j ->
               Queue.push (j, filter_tag) st.requests;
               j)
             i);
        let j =
          invoke rig.link_params params params_control ~name:"take_finished"
            ~guard:(fun st -> not (Queue.is_empty st.finished))
            (fun st _ -> Queue.pop st.finished)
            0
        in
        ignore
          (invoke rig.link_idwt hwsw idwt2d_client ~name:"put_ready"
             (fun st k ->
               Queue.push k st.ready;
               k)
             j)
      done);
  let spawn_filter tag =
    let name = if tag = 0 then "idwt53" else "idwt97" in
    let m = Osss.Hw_module.create kernel ~name ~clock_hz:Profile.clock_hz () in
    Osss.Hw_module.add_process m ~name:"filter" (fun () ->
        let expected = if tag = filter_tag then tile_count else 0 in
        for _ = 1 to expected do
          let i =
            invoke rig.link_params params params_filters.(tag)
              ~name:"take_params"
              ~guard:(fun st -> queue_exists st.requests (fun (_, t') -> t' = tag))
              (fun st _ ->
                let j, _ = Queue.pop st.requests in
                j)
              0
          in
          stage kernel "idwt" (fun () ->
              monitored mon (fun () ->
                  Meter.measure meter (fun () ->
                      (* Stream coefficients out of the HW/SW object,
                         run the lifting passes over the local working
                         memory, store the spatial result back. *)
                      ignore
                        (invoke rig.link_idwt hwsw filter_clients.(tag)
                           ~name:"get_coefficients" ~pad:rig.payload_words
                           (fun _ j -> j)
                           i);
                      Osss.Eet.consume
                        (rig.coeff_buffer_pass ~words:rig.payload_words);
                      Osss.Eet.consume hw_times.Profile.t_idwt;
                      Workload.stage_idwt w i;
                      ignore
                        (invoke rig.link_idwt hwsw filter_clients.(tag)
                           ~name:"put_spatial" ~pad:rig.payload_words
                           (fun _ j -> j)
                           i))));
          ignore
            (invoke rig.link_params params params_filters.(tag)
               ~name:"put_finished"
               (fun st j ->
                 Queue.push j st.finished;
                 j)
               i)
        done)
  in
  spawn_filter 0;
  spawn_filter 1;
  Sim.Kernel.run kernel;
  finish ~version ~kernel ~workload:w ~meter ~monitor:(Some mon)
    ~transports:rig.transports ()
