(* A second system modelled with the OSSS API: a Motion-JPEG 2000
   camera pipeline (the encode-side dual of the paper's decoder).

   camera task --frames--> encoder task + entropy co-processor SO
                --packets--> network link (bounded bandwidth)

   Frames are real images compressed by the library's encoder, so
   packet sizes (and therefore link occupancy) are genuine; timing
   comes from EET annotations, and an OSSS_RET block checks the
   25 fps end-to-end deadline of every frame.

     dune exec examples/mjpeg_stream.exe
*)

let ms = Sim.Sim_time.ms
let frame_period = ms 40 (* 25 fps *)
let frames = 8

type packet = { seq : int; bytes : int; captured_at : Sim.Sim_time.t }

let () =
  let kernel = Sim.Kernel.create () in

  let frame_queue = Sim.Mailbox.create kernel ~name:"frames" ~capacity:2 () in
  let packet_queue = Sim.Mailbox.create kernel ~name:"packets" ~capacity:4 () in

  (* The entropy co-processor: a Shared Object wrapping the Tier-1
     coder, 2 us per coded output byte at 100 MHz. *)
  let entropy =
    Osss.Shared_object.create kernel ~name:"entropy_coproc"
      ~arbiter:(Osss.Arbiter.create Osss.Arbiter.Fcfs)
      ()
  in
  let encoder_port = Osss.Shared_object.register_client entropy ~name:"encoder" () in

  (* Camera: one frame every 40 ms, 5 ms sensor readout. *)
  let _camera =
    Osss.Sw_task.create kernel ~name:"camera" (fun task ->
        for seq = 1 to frames do
          let frame =
            Osss.Sw_task.eet task (ms 5) (fun () ->
                Jpeg2000.Image.smooth ~width:64 ~height:48 ~components:3
                  ~seed:(100 + seq))
          in
          Sim.Mailbox.put frame_queue (seq, frame, Sim.Kernel.now kernel);
          Osss.Sw_task.consume task (Sim.Sim_time.sub frame_period (ms 5))
        done)
  in

  (* Encoder: wavelet + quantisation in software (12 ms), entropy
     coding on the co-processor (time grows with the coded size). *)
  let _encoder =
    Osss.Sw_task.create kernel ~name:"encoder" (fun task ->
        for _ = 1 to frames do
          let seq, frame, captured_at = Sim.Mailbox.get frame_queue in
          let stream =
            Osss.Sw_task.eet task (ms 12) (fun () ->
                Jpeg2000.Encoder.encode
                  { Jpeg2000.Encoder.default_lossy with tile_w = 64; tile_h = 48 }
                  frame)
          in
          let bytes = String.length stream in
          Osss.Shared_object.call entropy encoder_port
            ~eet:(Sim.Sim_time.us (2 * bytes))
            (fun () -> ());
          Sim.Mailbox.put packet_queue { seq; bytes; captured_at }
        done)
  in

  (* Network sink: 2 Mbit/s serial link; checks the frame deadline. *)
  let link = Osss.Channel.p2p kernel ~clock_hz:62_500 () in
  let _sink =
    Osss.Sw_task.create kernel ~name:"network" (fun _task ->
        for _ = 1 to frames do
          let p = Sim.Mailbox.get packet_queue in
          let (), on_time =
            Osss.Eet.ret_check frame_period (fun () ->
                Osss.Channel.transfer link ~words:((p.bytes + 3) / 4))
          in
          let latency =
            Sim.Sim_time.sub (Sim.Kernel.now kernel) p.captured_at
          in
          Printf.printf "[%8s] frame %d: %5d bytes, latency %8s %s\n"
            (Sim.Sim_time.to_string (Sim.Kernel.now kernel))
            p.seq p.bytes
            (Sim.Sim_time.to_string latency)
            (if on_time && Sim.Sim_time.( <= ) latency (Sim.Sim_time.mul_int frame_period 2)
             then "" else "  <- pipeline congestion")
        done)
  in

  Sim.Kernel.run kernel;
  Printf.printf
    "\n%d frames streamed in %s; co-processor busy %s, serialised %d calls\n"
    frames
    (Sim.Sim_time.to_string (Sim.Kernel.now kernel))
    (Sim.Sim_time.to_string (Osss.Shared_object.total_busy entropy))
    (Osss.Shared_object.calls entropy)
