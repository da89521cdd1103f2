(* Tests for the fault-injection engine, the hardened RMI transport
   and the robust decoder path. *)

let qc = QCheck_alcotest.to_alcotest
let time = Alcotest.testable Sim.Sim_time.pp Sim.Sim_time.equal
let ms = Sim.Sim_time.ms
let us = Sim.Sim_time.us
let clock_hz = 100_000_000

(* -- CRC codec ----------------------------------------------------- *)

let int32_array_gen =
  QCheck.(array_of_size Gen.(int_range 0 32) (map Int32.of_int int))

let nonempty_int32_array_gen =
  QCheck.(array_of_size Gen.(int_range 1 32) (map Int32.of_int int))

let crc_roundtrip_qcheck =
  QCheck.Test.make ~name:"CRC frame/check round-trips" ~count:300
    int32_array_gen
    (fun payload ->
      match Osss.Crc.check (Osss.Crc.frame payload) with
      | Some p -> p = payload
      | None -> false)

let crc_detects_bit_flip_qcheck =
  QCheck.Test.make ~name:"CRC detects any single bit flip" ~count:300
    QCheck.(triple nonempty_int32_array_gen small_nat small_nat)
    (fun (payload, wi, bi) ->
      let framed = Osss.Crc.frame payload in
      let wi = wi mod Array.length framed and bi = bi mod 32 in
      let corrupted = Array.copy framed in
      corrupted.(wi) <- Int32.logxor corrupted.(wi) (Int32.shift_left 1l bi);
      Osss.Crc.check corrupted = None)

let test_crc_detects_word_drop () =
  let payload = [| 0x12345678l; 0xDEADBEEFl; 0x0l; 0xFFFFFFFFl |] in
  let framed = Osss.Crc.frame payload in
  (* Dropping the second word shifts the tail under the CRC. *)
  let dropped =
    Array.init
      (Array.length framed - 1)
      (fun i -> if i < 1 then framed.(i) else framed.(i + 1))
  in
  Alcotest.(check bool) "drop detected" true (Osss.Crc.check dropped = None);
  Alcotest.(check bool) "empty frame invalid" true (Osss.Crc.check [||] = None)

(* -- RNG ----------------------------------------------------------- *)

let test_rng_determinism () =
  let draw seed =
    let r = Faults.Rng.create seed in
    List.init 64 (fun _ -> Faults.Rng.next r)
  in
  Alcotest.(check bool) "same seed, same stream" true (draw 7 = draw 7);
  Alcotest.(check bool) "different seed, different stream" true
    (draw 7 <> draw 8);
  let r = Faults.Rng.create 3 in
  for _ = 1 to 1000 do
    let f = Faults.Rng.float r in
    Alcotest.(check bool) "float in [0,1)" true (f >= 0.0 && f < 1.0);
    let i = Faults.Rng.int r 17 in
    Alcotest.(check bool) "int in range" true (i >= 0 && i < 17)
  done;
  (* hash64 is pure: same inputs, same output, order-free. *)
  Alcotest.(check bool) "hash64 pure" true
    (Faults.Rng.hash64 5L 9L = Faults.Rng.hash64 5L 9L)

(* -- Engine determinism -------------------------------------------- *)

let engine_trace seed =
  let e = Faults.Engine.create ~seed (Faults.Engine.channel_only 0.5) in
  Faults.Engine.with_engine e (fun () ->
      let hook = Option.get (Osss.Fault_hooks.channel ()) in
      let outputs =
        List.init 50 (fun i ->
            hook ~link:"l" (Array.init 8 (fun j -> Int32.of_int ((i * 8) + j))))
      in
      let c = Faults.Engine.counters e in
      (outputs, c.Faults.Engine.bit_flips, c.Faults.Engine.word_drops))

let test_engine_determinism () =
  let t1 = engine_trace 42 and t2 = engine_trace 42 in
  Alcotest.(check bool) "same seed replays same faults" true (t1 = t2);
  let _, flips, drops = t1 in
  Alcotest.(check bool) "faults actually injected" true (flips + drops > 0)

let test_engine_rejects_bad_rates () =
  let bad =
    { Faults.Engine.no_faults with Faults.Engine.channel_bit_flip = 1.5 }
  in
  Alcotest.(check bool) "rate > 1 rejected" true
    (try
       ignore (Faults.Engine.create ~seed:1 bad);
       false
     with Invalid_argument _ -> true);
  (* Zero rates claim no hook points at all. *)
  let e = Faults.Engine.create ~seed:1 Faults.Engine.no_faults in
  Faults.Engine.with_engine e (fun () ->
      Alcotest.(check bool) "no hooks for no faults" false
        (Osss.Fault_hooks.active ()))

(* -- Memory faults ------------------------------------------------- *)

let mem_rates ?(transient = 0.0) ?(stuck = 0.0) () =
  {
    Faults.Engine.no_faults with
    Faults.Engine.memory_transient = transient;
    memory_stuck_cell = stuck;
  }

let popcount32 x =
  let n = ref 0 in
  for b = 0 to 31 do
    if Int32.logand (Int32.shift_right_logical x b) 1l = 1l then incr n
  done;
  !n

let test_memory_transient_fault () =
  let k = Sim.Kernel.create () in
  let m = Osss.Memory.register_file k ~name:"rf" ~size_words:16 in
  let e = Faults.Engine.create ~seed:11 (mem_rates ~transient:1.0 ()) in
  Faults.Engine.with_engine e (fun () ->
      Osss.Memory.write m 3 0x0F0F0F0Fl;
      let v = Osss.Memory.read m 3 in
      Alcotest.(check int) "exactly one bit flipped" 1
        (popcount32 (Int32.logxor v 0x0F0F0F0Fl)));
  (* Transients corrupt the read value, not the storage. *)
  Alcotest.(check int32) "storage intact after uninstall" 0x0F0F0F0Fl
    (Osss.Memory.read m 3);
  Alcotest.(check bool) "transients counted" true
    ((Faults.Engine.counters e).Faults.Engine.mem_transients > 0)

let test_memory_stuck_cell () =
  let stuck_values seed order =
    let k = Sim.Kernel.create () in
    let m = Osss.Memory.register_file k ~name:"bram" ~size_words:16 in
    let e = Faults.Engine.create ~seed (mem_rates ~stuck:1.0 ()) in
    Faults.Engine.with_engine e (fun () ->
        List.iter (fun a -> Osss.Memory.write m a 0l) order;
        List.map (fun a -> (a, Osss.Memory.read m a)) (List.sort compare order))
  in
  let a = stuck_values 5 [ 0; 1; 2; 3 ] and b = stuck_values 5 [ 3; 2; 1; 0 ] in
  (* The stuck fate of a cell is a pure function of (seed, mem, addr):
     access order must not matter. *)
  Alcotest.(check bool) "stuck fates independent of access order" true (a = b);
  (* With every cell stuck, a write of 0 must read back non-zero
     somewhere (some cell has a bit stuck at 1) — and repeatably so. *)
  Alcotest.(check bool) "same seed, same stuck pattern" true
    (stuck_values 5 [ 0; 1; 2; 3 ] = a)

(* -- Stall jitter --------------------------------------------------- *)

let stall_run seed =
  let k = Sim.Kernel.create () in
  let proc = Osss.Processor.create k ~name:"cpu" ~clock_hz () in
  let t = Osss.Sw_task.create k ~name:"t" (fun t -> Osss.Sw_task.consume t (ms 1)) in
  Osss.Sw_task.map_to_processor t proc;
  let e =
    Faults.Engine.create ~seed
      {
        Faults.Engine.no_faults with
        Faults.Engine.stall_probability = 1.0;
        stall_max_cycles = 100;
      }
  in
  Faults.Engine.with_engine e (fun () -> Sim.Kernel.run k);
  (Sim.Kernel.now k, (Faults.Engine.counters e).Faults.Engine.stall_cycles)

let test_stall_jitter () =
  let now, cycles = stall_run 21 in
  Alcotest.(check bool) "stall cycles injected" true (cycles > 0);
  Alcotest.check time "jitter extends execution"
    (Sim.Sim_time.add (ms 1) (Sim.Sim_time.cycles ~hz:clock_hz cycles))
    now;
  Alcotest.(check bool) "jitter deterministic" true (stall_run 21 = stall_run 21)

(* -- Hardened RMI --------------------------------------------------- *)

(* One RMI call over a protected P2P link whose [nth] frame attempts
   get one bit flipped in flight. Returns (functional result, elapsed,
   transport stats). *)
let rmi_under_flips ~protection ~corrupt_attempts =
  let k = Sim.Kernel.create () in
  let so =
    Osss.Shared_object.create k ~name:"coproc"
      ~arbiter:(Osss.Arbiter.create Osss.Arbiter.Fcfs)
      (ref 0)
  in
  let client = Osss.Shared_object.register_client so ~name:"sw" () in
  let transport = Osss.Channel.p2p k ~clock_hz ~name:"link" () in
  Osss.Channel.set_protection transport protection;
  let doubler =
    Osss.Channel.rmi_method ~name:"double" ~args:Osss.Serialisation.int_array
      ~ret:Osss.Serialisation.int_array
      ~execution_time:(fun a -> us (Array.length a))
      (fun state a ->
        incr state;
        Array.map (fun x -> 2 * x) a)
  in
  let attempt = ref 0 in
  Osss.Fault_hooks.set_channel (fun ~link:_ words ->
      incr attempt;
      if corrupt_attempts !attempt then begin
        (* Flip a bit in the last word: a payload value word when
           unprotected, the CRC word itself when protected — either
           way the frame is damaged without breaking the length
           prefix. *)
        let w = Array.copy words in
        let i = Array.length w - 1 in
        w.(i) <- Int32.logxor w.(i) 0x40l;
        w
      end
      else words);
  Fun.protect ~finally:Osss.Fault_hooks.clear (fun () ->
      let result = ref [||] in
      Sim.Kernel.spawn k (fun () ->
          result := Osss.Channel.rmi_call transport so client doubler [| 1; 2; 3 |]);
      Sim.Kernel.run k;
      (!result, Sim.Kernel.now k, Osss.Channel.stats transport))

let test_crc_retry_recovers_flip () =
  (* Baseline: protected link, no faults. *)
  let clean, t_clean, s_clean =
    rmi_under_flips ~protection:(Osss.Channel.crc_retry ())
      ~corrupt_attempts:(fun _ -> false)
  in
  Alcotest.(check (array int)) "clean result" [| 2; 4; 6 |] clean;
  Alcotest.(check int) "no clean retries" 0 s_clean.Osss.Channel.retries;
  Alcotest.check time "no clean retry time" Sim.Sim_time.zero
    s_clean.Osss.Channel.retry_time;
  (* Inject one flip into the first frame: recovered transparently. *)
  let r, t_faulted, s =
    rmi_under_flips ~protection:(Osss.Channel.crc_retry ())
      ~corrupt_attempts:(fun n -> n = 1)
  in
  Alcotest.(check (array int)) "recovered result" [| 2; 4; 6 |] r;
  Alcotest.(check int) "one CRC error" 1 s.Osss.Channel.crc_errors;
  Alcotest.(check int) "one retry" 1 s.Osss.Channel.retries;
  Alcotest.(check int) "no giveup" 0 s.Osss.Channel.giveups;
  (* The retransmission is paid for in simulated time, not free. *)
  Alcotest.(check bool) "retry time measured" true
    (Sim.Sim_time.compare s.Osss.Channel.retry_time Sim.Sim_time.zero > 0);
  Alcotest.(check bool) "recovery costs simulated time" true
    (Sim.Sim_time.compare t_faulted t_clean > 0)

let test_unprotected_flip_corrupts () =
  (* The same single flip without protection reaches the deserialiser:
     the functional result is wrong — that is what the CRC buys. *)
  let r, _, s =
    rmi_under_flips ~protection:Osss.Channel.Unprotected
      ~corrupt_attempts:(fun n -> n = 1)
  in
  Alcotest.(check bool) "corruption passes through" true (r <> [| 2; 4; 6 |]);
  Alcotest.(check int) "nothing detected" 0 s.Osss.Channel.crc_errors

let test_retry_budget_exhaustion () =
  let raised = ref false in
  let stats = ref None in
  (try
     ignore
       (rmi_under_flips
          ~protection:
            (Osss.Channel.crc_retry ~max_retries:3 ~timeout_cycles:8
               ~backoff_base_cycles:4 ())
          ~corrupt_attempts:(fun _ -> true))
   with Osss.Channel.Transfer_failed { link; what; attempts } ->
     raised := true;
     Alcotest.(check string) "failing link" "link" link;
     Alcotest.(check bool) "what names the method frame" true
       (what = "double:args");
     Alcotest.(check int) "attempts = 1 + max_retries" 4 attempts;
     stats := Some ());
  Alcotest.(check bool) "Transfer_failed raised" true !raised;
  Alcotest.(check bool) "giveup observed" true (!stats <> None)

let test_payload_transfer_protected () =
  let k = Sim.Kernel.create () in
  let transport = Osss.Channel.p2p k ~clock_hz ~name:"pad" () in
  Osss.Channel.set_protection transport (Osss.Channel.crc_retry ());
  let first = ref true in
  Osss.Fault_hooks.set_frame (fun ~link:_ ~words:_ ->
      if !first then begin
        first := false;
        true
      end
      else false);
  Fun.protect ~finally:Osss.Fault_hooks.clear (fun () ->
      Sim.Kernel.spawn k (fun () ->
          Osss.Channel.payload_transfer transport ~words:1024);
      Sim.Kernel.run k);
  let s = Osss.Channel.stats transport in
  Alcotest.(check int) "pad frame retried once" 1 s.Osss.Channel.retries;
  Alcotest.(check int) "no giveup" 0 s.Osss.Channel.giveups;
  (* Elapsed: one clean transfer + one corrupted attempt + timeout +
     backoff — strictly more than two bare transfers. *)
  Alcotest.(check bool) "retransmission cost visible" true
    (Sim.Sim_time.compare (Sim.Kernel.now k)
       (Osss.Channel.transfer_time_unloaded transport ~words:2048)
    > 0)

(* -- Robust decoder fuzzing ---------------------------------------- *)

let fuzz_config =
  {
    Jpeg2000.Encoder.tile_w = 16;
    tile_h = 16;
    levels = 2;
    mode = Jpeg2000.Codestream.Lossless;
    base_step = 2.0;
    code_block = 8;
  }

let fuzz_stream =
  lazy
    (let image =
       Jpeg2000.Image.smooth ~width:32 ~height:32 ~components:3 ~seed:7
     in
     Jpeg2000.Encoder.encode fuzz_config image)

let corrupt_stream rng data =
  let b = Bytes.of_string data in
  let n = Bytes.length b in
  (* Random mix of damage: truncation, bit flips, byte stomps. *)
  let truncated =
    if Faults.Rng.bool rng then Bytes.sub b 0 (Faults.Rng.int rng (n + 1)) else b
  in
  let m = Bytes.length truncated in
  if m > 0 then
    for _ = 1 to 1 + Faults.Rng.int rng 16 do
      let i = Faults.Rng.int rng m in
      if Faults.Rng.bool rng then
        Bytes.set truncated i
          (Char.chr
             (Char.code (Bytes.get truncated i) lxor (1 lsl Faults.Rng.int rng 8)))
      else Bytes.set truncated i (Char.chr (Faults.Rng.int rng 256))
    done;
  Bytes.to_string truncated

let test_fuzz_decode_robust_total () =
  let data = Lazy.force fuzz_stream in
  let rng = Faults.Rng.create 2008 in
  let oks = ref 0 and errors = ref 0 in
  for case = 1 to 1000 do
    let corrupted = corrupt_stream rng data in
    match Jpeg2000.Decoder.decode_robust corrupted with
    | Ok (image, report) ->
      incr oks;
      (* The frame is sized by whatever header the bytes declare —
         32x32 unless the damage landed in the preamble itself (a
         truncated prefix decodes best-effort once its preamble is
         complete, so a self-consistent flipped header can survive). *)
      (match Jpeg2000.Codestream.read_preamble corrupted ~pos:0 with
      | Jpeg2000.Codestream.Unit_ready ((header, _), _) ->
        Alcotest.(check bool) "header-size image" true
          (Jpeg2000.Image.width image = header.Jpeg2000.Codestream.width
          && Jpeg2000.Image.height image = header.Jpeg2000.Codestream.height)
      | _ -> Alcotest.fail "Ok decode without a parseable preamble");
      Alcotest.(check bool) "report counts sane" true
        (report.Jpeg2000.Decoder.concealed_blocks >= 0
        && report.Jpeg2000.Decoder.concealed_tiles
           <= report.Jpeg2000.Decoder.total_tiles)
    | Error _ -> incr errors
    | exception e ->
      Alcotest.failf "case %d: decode_robust raised %s" case
        (Printexc.to_string e)
  done;
  (* The corpus must exercise both outcomes, or the test is vacuous. *)
  Alcotest.(check bool) "some streams still parse" true (!oks > 0);
  Alcotest.(check bool) "some streams rejected" true (!errors > 0)

let test_decode_robust_clean_stream () =
  let data = Lazy.force fuzz_stream in
  match Jpeg2000.Decoder.decode_robust data with
  | Ok (image, report) ->
    Alcotest.(check bool) "no damage on clean stream" true
      (Jpeg2000.Decoder.no_damage report);
    Alcotest.(check bool) "identical to strict decode" true
      (Jpeg2000.Image.equal image (Jpeg2000.Decoder.decode data))
  | Error e -> Alcotest.failf "clean stream rejected: %s" (Jpeg2000.Codestream.error_message e)

let test_parse_result_typed_errors () =
  let data = Lazy.force fuzz_stream in
  (match Jpeg2000.Codestream.parse_result "" with
  | Error Jpeg2000.Codestream.Bad_magic -> ()
  | _ -> Alcotest.fail "empty stream should fail the magic check");
  (match Jpeg2000.Codestream.parse_result "garbage-not-a-codestream" with
  | Error Jpeg2000.Codestream.Bad_magic -> ()
  | _ -> Alcotest.fail "bad magic expected");
  let truncated = String.sub data 0 (String.length data / 2) in
  (match Jpeg2000.Codestream.parse_result truncated with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated stream should not parse");
  match Jpeg2000.Codestream.parse_result data with
  | Ok _ -> ()
  | Error e ->
    Alcotest.failf "well-formed stream rejected: %s"
      (Jpeg2000.Codestream.error_message e)

(* -- Campaign ------------------------------------------------------- *)

let test_campaign_deterministic () =
  let config =
    Models.Campaign.default ~seed:99 ~rates:[ 0.02 ]
      ~versions:[ Models.Experiment.V2 ] ()
  in
  let render () = Models.Campaign.render config (Models.Campaign.run config) in
  let a = render () in
  Alcotest.(check string) "two runs render identically" a (render ());
  Alcotest.(check bool) "table has the version row" true
    (Str_util.contains a "2")

let test_campaign_concealment_visible () =
  (* At a high stream-corruption rate the robust workload must
     actually conceal blocks, and the run must stay functional. *)
  let w =
    Models.Workload.make ~corrupt:(123, 0.02) Jpeg2000.Codestream.Lossless
  in
  Alcotest.(check bool) "corruption flagged" true (Models.Workload.corrupted w);
  Alcotest.(check bool) "blocks concealed" true
    (Models.Workload.concealed_blocks w > 0);
  let psnr = Models.Workload.psnr_db w in
  Alcotest.(check bool) "PSNR impact finite" true
    (Float.is_finite psnr && psnr > 10.0);
  let o = Models.Experiment.run_workload Models.Experiment.V1 w in
  Alcotest.(check (option bool)) "staged decode matches robust reference"
    (Some true) o.Models.Outcome.functional_ok;
  Alcotest.(check int) "concealment surfaced in outcome"
    (Models.Workload.concealed_blocks w)
    o.Models.Outcome.resilience.Models.Outcome.concealed_blocks

(* -- ingest faults ----------------------------------------------------- *)

let ingest_payload = String.init 10_000 (fun i -> Char.chr (i land 0xff))

let ingest_spec_exn s =
  match Faults.Ingest.parse_spec s with
  | Ok spec -> spec
  | Error e -> Alcotest.failf "bad ingest spec %S: %s" s e

let test_ingest_schedule_deterministic () =
  let spec = ingest_spec_exn "loss=0.1,dup=0.1,reorder=0.2,stall=0.3" in
  let a = Faults.Ingest.schedule ~seed:7 spec ~start_ps:1000 ingest_payload in
  let b = Faults.Ingest.schedule ~seed:7 spec ~start_ps:1000 ingest_payload in
  Alcotest.(check bool) "equal seeds, equal deliveries" true (a = b);
  let c = Faults.Ingest.schedule ~seed:8 spec ~start_ps:1000 ingest_payload in
  Alcotest.(check bool) "different seed, different schedule" true (a <> c)

let test_ingest_schedule_bounds () =
  let spec = ingest_spec_exn "chunk=256,loss=0.2,dup=0.2,reorder=0.3,stall=0.2" in
  let d = Faults.Ingest.schedule ~seed:42 spec ~start_ps:0 ingest_payload in
  let n = String.length ingest_payload in
  Alcotest.(check int) "sent covers the stream" ((n + 255) / 256)
    d.Faults.Ingest.sent;
  Alcotest.(check int) "chunk count balances"
    (d.Faults.Ingest.sent - d.Faults.Ingest.lost + d.Faults.Ingest.duped)
    (List.length d.Faults.Ingest.chunks);
  (* arrivals sorted, offsets chunk-aligned, payloads match the data *)
  let last = ref min_int in
  List.iter
    (fun (c : Faults.Ingest.chunk) ->
      Alcotest.(check bool) "sorted by arrival" true
        (c.Faults.Ingest.c_arrival_ps >= !last);
      last := c.Faults.Ingest.c_arrival_ps;
      Alcotest.(check int) "aligned offset" 0 (c.Faults.Ingest.c_offset mod 256);
      Alcotest.(check string) "payload is the slice"
        (String.sub ingest_payload c.Faults.Ingest.c_offset
           (String.length c.Faults.Ingest.c_bytes))
        c.Faults.Ingest.c_bytes)
    d.Faults.Ingest.chunks;
  (* a lossless schedule reassembles to the exact stream *)
  let clean = ingest_spec_exn "chunk=256" in
  let d0 = Faults.Ingest.schedule ~seed:42 clean ~start_ps:0 ingest_payload in
  Alcotest.(check int) "nothing lost" 0 d0.Faults.Ingest.lost;
  let buf = Bytes.make n '\000' in
  List.iter
    (fun (c : Faults.Ingest.chunk) ->
      Bytes.blit_string c.Faults.Ingest.c_bytes 0 buf c.Faults.Ingest.c_offset
        (String.length c.Faults.Ingest.c_bytes))
    d0.Faults.Ingest.chunks;
  Alcotest.(check string) "reassembles exactly" ingest_payload
    (Bytes.to_string buf)

let test_ingest_spec_validation () =
  List.iter
    (fun (s, fragment) ->
      match Faults.Ingest.parse_spec s with
      | Ok _ -> Alcotest.failf "spec %S accepted" s
      | Error msg ->
        if not (String.length msg > 0 && String.sub msg 0 (String.length fragment) = fragment)
        then Alcotest.failf "spec %S: message %S does not name %S" s msg fragment)
    [
      ("chunk=0", "chunk=0");
      ("chunk=-5", "chunk=-5");
      ("chunk=abc", "chunk=\"abc\"");
      ("loss=1.5", "loss=1.5");
      ("loss=nan", "loss=nan");
      ("gap_us=0", "gap_us=0");
      ("window=0", "window=0");
      ("stall_us=-1", "stall_us=-1");
    ];
  (* round trip of the canonical form *)
  let spec = ingest_spec_exn "chunk=128,loss=0.25,stall=0.5,stall_us=250" in
  let s = Faults.Ingest.spec_to_string spec in
  Alcotest.(check bool) "canonical form reparses" true
    (Faults.Ingest.parse_spec s = Ok spec)

let () =
  Alcotest.run "faults"
    [
      ( "crc",
        [
          qc crc_roundtrip_qcheck;
          qc crc_detects_bit_flip_qcheck;
          Alcotest.test_case "word drop detected" `Quick
            test_crc_detects_word_drop;
        ] );
      ( "engine",
        [
          Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
          Alcotest.test_case "engine determinism" `Quick test_engine_determinism;
          Alcotest.test_case "bad rates rejected" `Quick
            test_engine_rejects_bad_rates;
          Alcotest.test_case "memory transient" `Quick test_memory_transient_fault;
          Alcotest.test_case "memory stuck cell" `Quick test_memory_stuck_cell;
          Alcotest.test_case "stall jitter" `Quick test_stall_jitter;
        ] );
      ( "hardened_rmi",
        [
          Alcotest.test_case "CRC/retry recovers a flip" `Quick
            test_crc_retry_recovers_flip;
          Alcotest.test_case "unprotected flip corrupts" `Quick
            test_unprotected_flip_corrupts;
          Alcotest.test_case "retry budget exhaustion" `Quick
            test_retry_budget_exhaustion;
          Alcotest.test_case "protected payload transfer" `Quick
            test_payload_transfer_protected;
        ] );
      ( "robust_decode",
        [
          Alcotest.test_case "1000 corrupted streams never raise" `Slow
            test_fuzz_decode_robust_total;
          Alcotest.test_case "clean stream undamaged" `Quick
            test_decode_robust_clean_stream;
          Alcotest.test_case "typed parse errors" `Quick
            test_parse_result_typed_errors;
        ] );
      ( "ingest",
        [
          Alcotest.test_case "schedule deterministic" `Quick
            test_ingest_schedule_deterministic;
          Alcotest.test_case "schedule bounds" `Quick test_ingest_schedule_bounds;
          Alcotest.test_case "spec validation" `Quick test_ingest_spec_validation;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "campaign deterministic" `Slow
            test_campaign_deterministic;
          Alcotest.test_case "concealment visible" `Slow
            test_campaign_concealment_visible;
        ] );
    ]
