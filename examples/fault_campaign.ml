(* Fault injection and graceful degradation.

   The robustness layer has three parts, demonstrated bottom-up:

   1. a hardened RMI transport — every serialised frame carries a CRC
      word; a corrupted frame costs a timeout, exponential backoff and
      a retransmission, all paid in simulated time;
   2. a seeded fault engine (`Faults.Engine`) that injects bit flips,
      word drops and stall jitter through the `Osss.Fault_hooks`
      points — deterministically, so a campaign is a reproducible
      experiment;
   3. a campaign sweep over the decoder models: corrupted entropy
      payloads are decoded with per-code-block concealment and the
      table reports retries, concealments and the PSNR cost.

     dune exec examples/fault_campaign.exe
*)

let clock_hz = 100_000_000

(* -- 1. one corrupted RMI call, recovered by CRC + retry ----------- *)

let hardened_rmi_demo () =
  let kernel = Sim.Kernel.create () in
  let so =
    Osss.Shared_object.create kernel ~name:"coproc"
      ~arbiter:(Osss.Arbiter.create Osss.Arbiter.Fcfs)
      (ref ())
  in
  let client = Osss.Shared_object.register_client so ~name:"sw" () in
  let link = Osss.Channel.p2p kernel ~clock_hz ~name:"idwt_link" () in
  Osss.Channel.set_protection link Osss.Channel.Crc_retry;
  let negate =
    Osss.Channel.rmi_method ~name:"negate" ~args:Osss.Serialisation.int_array
      ~ret:Osss.Serialisation.int_array
      (fun _ a -> Array.map (fun x -> -x) a)
  in
  (* Corrupt the first frame on the wire; the CRC catches it and the
     transport retransmits. *)
  let attempt = ref 0 in
  Osss.Fault_hooks.set_channel (fun ~link:_ words ->
      incr attempt;
      if !attempt = 1 then begin
        let w = Array.copy words in
        w.(Array.length w - 1) <- Int32.lognot w.(Array.length w - 1);
        w
      end
      else words);
  Fun.protect ~finally:Osss.Fault_hooks.clear (fun () ->
      let result = ref [||] in
      Sim.Kernel.spawn kernel (fun () ->
          result := Osss.Channel.rmi_call link so client negate [| 1; 2; 3 |]);
      Sim.Kernel.run kernel;
      let s = Osss.Channel.stats link in
      Printf.printf
        "hardened RMI: result [|%s|], %d CRC error(s), %d retry(ies), \
         recovery cost %.3f us\n\n"
        (String.concat "; "
           (Array.to_list (Array.map string_of_int !result)))
        s.Osss.Channel.crc_errors s.Osss.Channel.retries
        (Sim.Sim_time.to_float_ms s.Osss.Channel.retry_time *. 1000.0))

(* -- 2. the engine replays the same faults for the same seed ------- *)

let determinism_demo () =
  let counters seed =
    let engine =
      Faults.Engine.create ~seed (Faults.Engine.channel_only 0.3)
    in
    Faults.Engine.with_engine engine (fun () ->
        let hook = Option.get (Osss.Fault_hooks.channel ()) in
        for i = 0 to 99 do
          ignore (hook ~link:"demo" (Array.make 16 (Int32.of_int i)))
        done);
    Format.asprintf "%a" Faults.Engine.pp_counters
      (Faults.Engine.counters engine)
  in
  Printf.printf "engine, seed 1:       %s\n" (counters 1);
  Printf.printf "engine, seed 1 again: %s\n" (counters 1);
  Printf.printf "engine, seed 2:       %s\n\n" (counters 2)

(* -- 3. resilience table over the decoder models ------------------- *)

let campaign_demo () =
  let config =
    Models.Campaign.default ~seed:2008
      ~rates:[ 0.0; 0.01; 0.05 ]
      ~versions:[ Models.Experiment.V1; Models.Experiment.V6a ]
      ()
  in
  print_string (Models.Campaign.render config (Models.Campaign.run config))

let () =
  hardened_rmi_demo ();
  determinism_demo ();
  campaign_demo ()
