let default_bus_max_burst = 32

(* Explicit memory insertion: the HW/SW Shared Object's tile arrays
   become a 32-bit-data, 16-bit-address block RAM (the paper's
   xilinx_block_ram<osss_array<...>, 32, 16>). One streaming pass of
   the IDWT working set over that memory costs its burst time. *)
let make_rig kernel ~sw_tasks ~idwt_p2p ~bus_max_burst ~mode
    ?(protection = Osss.Channel.Unprotected) () =
  let bus =
    Osss.Bus.create kernel ~name:"opb" ~clock_hz:Profile.clock_hz
      ~max_burst_words:bus_max_burst ()
  in
  let bram =
    Osss.Memory.xilinx_block_ram ~data_width:32 ~addr_width:16
      ~clock_hz:Profile.clock_hz
  in
  let processors =
    Array.init sw_tasks (fun i ->
        Osss.Processor.create kernel
          ~name:(Printf.sprintf "microblaze%d" i)
          ~clock_hz:Profile.clock_hz ())
  in
  let sw_transports =
    Array.init sw_tasks (fun i ->
        Osss.Channel.bus_transport bus
          (Osss.Bus.attach_master bus ~name:(Printf.sprintf "microblaze%d" i)))
  in
  let idwt_transport =
    if idwt_p2p then
      Osss.Channel.p2p kernel ~clock_hz:Profile.clock_hz ~name:"idwt_p2p" ()
    else
      Osss.Channel.bus_transport bus
        (Osss.Bus.attach_master bus ~name:"idwt_blocks")
  in
  let params_transport =
    Osss.Channel.p2p kernel ~clock_hz:Profile.clock_hz ~name:"params_p2p" ()
  in
  let transports =
    Array.to_list sw_transports @ [ idwt_transport; params_transport ]
  in
  List.iter (fun tr -> Osss.Channel.set_protection tr protection) transports;
  let sw_links =
    Array.map (fun tr -> Decoder_system.Rmi tr) sw_transports
  in
  let idwt_link = Decoder_system.Rmi idwt_transport in
  let params_link = Decoder_system.Rmi params_transport in
  {
    Decoder_system.link_sw = (fun i -> sw_links.(i));
    link_idwt = idwt_link;
    link_params = params_link;
    map_task = (fun i task -> Osss.Sw_task.map_to_processor task processors.(i));
    coeff_buffer_pass = (fun ~words -> Osss.Memory.access_time bram ~words);
    payload_words = Profile.nominal_tile_words mode;
    (* At the VTA the Shared-Object arbitration is the cycle-accurate
       channel/arbiter model; the software run-time keeps only a
       fixed request-setup cost. *)
    sw_grant_overhead =
      (fun ~clients:_ -> Sim.Sim_time.cycles ~hz:Profile.clock_hz 20);
    transports;
  }

let run_custom ?(bus_max_burst = default_bus_max_burst) ?so_policy ?protection
    ?idwt_deadline ~version ~sw_tasks ~idwt_p2p w =
  Decoder_system.run_pipeline ~version ~sw_tasks
    ~rig:(fun kernel ->
      make_rig kernel ~sw_tasks ~idwt_p2p ~bus_max_burst ~mode:(Workload.mode w)
        ?protection ())
    ?so_policy ?idwt_deadline w

let mapping ~sw_tasks ~idwt_p2p =
  let vta = Osss.Vta.create Osss.Platform.ml401 in
  for i = 0 to sw_tasks - 1 do
    Osss.Vta.map_task vta
      ~task:(Printf.sprintf "decoder%d" i)
      ~processor:(Printf.sprintf "microblaze%d" i)
  done;
  List.iter
    (fun m -> Osss.Vta.map_module vta ~module_name:m ~block:(m ^ "_block"))
    [ "idwt2d"; "idwt53"; "idwt97" ];
  for i = 0 to sw_tasks - 1 do
    Osss.Vta.map_link vta
      ~link:(Printf.sprintf "decoder%d->hwsw_so" i)
      ~channel:"opb" ~kind:Osss.Vta.Shared_bus
  done;
  (* The channels [make_rig] builds: one IDWT and one params transport. *)
  let idwt_channel, idwt_kind =
    if idwt_p2p then ("idwt_p2p", Osss.Vta.Point_to_point)
    else ("opb", Osss.Vta.Shared_bus)
  in
  List.iter
    (fun (so, channel, kind) ->
      List.iter
        (fun m -> Osss.Vta.map_link vta ~link:(m ^ "->" ^ so) ~channel ~kind)
        [ "idwt2d"; "idwt53"; "idwt97" ])
    [ ("hwsw_so", idwt_channel, idwt_kind);
      ("params_so", "params_p2p", Osss.Vta.Point_to_point) ];
  (* Shared-Object access declarations mirroring the method calls of
     Decoder_system.run_pipeline — the wait-for graph the analysis
     layer checks for guard-deadlock cycles. *)
  for i = 0 to sw_tasks - 1 do
    let client = Printf.sprintf "decoder%d" i in
    (* put_pending is plain, take_ready waits on a non-empty guard. *)
    Osss.Vta.record_so_access vta ~client ~so:"hwsw_so" ~guarded:false;
    Osss.Vta.record_so_access vta ~client ~so:"hwsw_so" ~guarded:true
  done;
  (* idwt2d: take_pending (guarded) / put_ready on the HW/SW SO,
     put_params / take_finished (guarded) on the params SO. *)
  Osss.Vta.record_so_access vta ~client:"idwt2d" ~so:"hwsw_so" ~guarded:true;
  Osss.Vta.record_so_access vta ~client:"idwt2d" ~so:"hwsw_so" ~guarded:false;
  Osss.Vta.record_so_access vta ~client:"idwt2d" ~so:"idwt_params_so"
    ~guarded:false;
  Osss.Vta.record_so_access vta ~client:"idwt2d" ~so:"idwt_params_so"
    ~guarded:true;
  (* Filter banks: take_params (guarded) / put_finished on the params
     SO, coefficient streaming on the HW/SW SO. *)
  List.iter
    (fun m ->
      Osss.Vta.record_so_access vta ~client:m ~so:"idwt_params_so" ~guarded:true;
      Osss.Vta.record_so_access vta ~client:m ~so:"idwt_params_so" ~guarded:false;
      Osss.Vta.record_so_access vta ~client:m ~so:"hwsw_so" ~guarded:false)
    [ "idwt53"; "idwt97" ];
  (match Osss.Vta.validate vta with
  | Ok () -> ()
  | Error es -> failwith ("Vta_models.mapping: " ^ String.concat "; " es));
  vta
