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

(* -- Stall jitter --------------------------------------------------- *)

let stall_run seed =
  let k = Sim.Kernel.create () in
  let proc = Osss.Processor.create k ~name:"cpu" ~clock_hz in
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
    rmi_under_flips ~protection:Osss.Channel.Crc_retry
      ~corrupt_attempts:(fun _ -> false)
  in
  Alcotest.(check (array int)) "clean result" [| 2; 4; 6 |] clean;
  Alcotest.(check int) "no clean retries" 0 s_clean.Osss.Channel.retries;
  Alcotest.check time "no clean retry time" Sim.Sim_time.zero
    s_clean.Osss.Channel.retry_time;
  (* Inject one flip into the first frame: recovered transparently. *)
  let r, t_faulted, s =
    rmi_under_flips ~protection:Osss.Channel.Crc_retry
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
       (rmi_under_flips ~protection:Osss.Channel.Crc_retry
          ~corrupt_attempts:(fun _ -> true))
   with Osss.Channel.Transfer_failed { link; what; attempts } ->
     raised := true;
     Alcotest.(check string) "failing link" "link" link;
     Alcotest.(check bool) "what names the method frame" true
       (what = "double:args");
     Alcotest.(check int) "attempts = 1 + 8 retries" 9 attempts;
     stats := Some ());
  Alcotest.(check bool) "Transfer_failed raised" true !raised;
  Alcotest.(check bool) "giveup observed" true (!stats <> None)

let test_payload_transfer_protected () =
  let k = Sim.Kernel.create () in
  let transport = Osss.Channel.p2p k ~clock_hz ~name:"pad" () in
  Osss.Channel.set_protection transport Osss.Channel.Crc_retry;
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
      (match (Jpeg2000.Codestream.parse_prefix corrupted).header with
      | Some header ->
        Alcotest.(check bool) "header-size image" true
          (Jpeg2000.Image.width image = header.Jpeg2000.Codestream.width
          && Jpeg2000.Image.height image = header.Jpeg2000.Codestream.height)
      | None -> Alcotest.fail "Ok decode without a parseable preamble");
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

(* A band whose block list does not match its code-block grid. The
   strict decoder refuses the stream, naming the tile, component, band
   and both counts; the robust one conceals that tile whole, mid-grey,
   and decodes the others. Levels 1 and code blocks of 4 give every
   band of a 16x16 tile four blocks. *)
let refused_source =
  lazy
    (Jpeg2000.Encoder.encode
       { fuzz_config with levels = 1; code_block = 4 }
       (Jpeg2000.Image.smooth ~width:32 ~height:32 ~components:3 ~seed:7))

(* The source stream with [edit] applied to the blocks of band [band]
   (in decomposition order: LL, HL, LH, HH) of component [comp] in
   tile [tile]. *)
let edit_blocks ~tile ~comp ~band edit =
  let open Jpeg2000.Codestream in
  let s = Result.get_ok (parse_result (Lazy.force refused_source)) in
  let edit_tile t =
    if t.tile_index <> tile then t
    else begin
      let comps = Array.copy t.comps in
      comps.(comp) <-
        List.mapi
          (fun i b -> if i = band then { b with seg_blocks = edit b.seg_blocks } else b)
          comps.(comp);
      { t with comps }
    end
  in
  emit { s with tiles = List.map edit_tile s.tiles }

let test_block_count_refused () =
  let clean = Jpeg2000.Decoder.decode (Lazy.force refused_source) in
  let concealed ~x0 ~y0 =
    let image = Jpeg2000.Image.create ~width:32 ~height:32 ~components:3 () in
    Array.iteri
      (fun c plane ->
        for y = 0 to 31 do
          for x = 0 to 31 do
            let inside = x >= x0 && x < x0 + 16 && y >= y0 && y < y0 + 16 in
            Jpeg2000.Image.plane_set plane ~x ~y
              (if inside then 128
               else Jpeg2000.Image.plane_get clean.Jpeg2000.Image.planes.(c) ~x ~y)
          done
        done)
      image.Jpeg2000.Image.planes;
    image
  in
  List.iter
    (fun (label, data, message, (x0, y0), digest) ->
      (match Jpeg2000.Decoder.decode data with
      | _ -> Alcotest.failf "%s: decode accepted the stream" label
      | exception Failure msg -> Alcotest.(check string) label message msg);
      match Jpeg2000.Decoder.decode_robust data with
      | Error e ->
        Alcotest.failf "%s: %s" label (Jpeg2000.Codestream.error_message e)
      | Ok (image, report) ->
        Alcotest.(check (pair int int)) (label ^ ": concealed tiles, blocks")
          (1, 0)
          (report.Jpeg2000.Decoder.concealed_tiles,
           report.Jpeg2000.Decoder.concealed_blocks);
        Alcotest.(check bool) (label ^ ": tile concealed, the rest decoded")
          true
          (Jpeg2000.Image.equal image (concealed ~x0 ~y0));
        Alcotest.(check string) (label ^ ": image digest") digest
          (Digest.to_hex (Digest.string (Jpeg2000.Image.to_pnm image))))
    [
      ( "no blocks",
        edit_blocks ~tile:1 ~comp:2 ~band:3 (fun _ -> []),
        "Decoder: tile 1, component 2, band HH at level 1: code-block count \
         mismatch (0 in the stream, 4 in the band's grid)",
        (16, 0),
        "21324074a4a4723038c381fb52cac075" );
      ( "one block too few",
        edit_blocks ~tile:2 ~comp:0 ~band:0 (fun blocks ->
            List.filteri (fun i _ -> i < List.length blocks - 1) blocks),
        "Decoder: tile 2, component 0, band LL at level 1: code-block count \
         mismatch (3 in the stream, 4 in the band's grid)",
        (0, 16),
        "ab1d5f36096c8c42a8bf2a36e90388b2" );
    ]

(* A stream that declares one 2048x2048 grey tile whose only band
   carries no code blocks: 61 bytes. [decode_robust] conceals the tile
   whole, filling the image in place, so the image is all it
   allocates that grows with the declared size. *)
let empty_band_stream n =
  let open Jpeg2000.Codestream in
  emit
    {
      header =
        {
          width = n;
          height = n;
          components = 1;
          tile_w = n;
          tile_h = n;
          levels = 0;
          mode = Lossless;
          bit_depth = 8;
          base_step = 1.0;
          code_block = 64;
        };
      tiles =
        [
          {
            tile_index = 0;
            tile_x0 = 0;
            tile_y0 = 0;
            tile_w = n;
            tile_h = n;
            comps =
              [|
                [
                  {
                    seg_level = 0;
                    seg_orientation = Jpeg2000.Subband.LL;
                    seg_w = n;
                    seg_h = n;
                    seg_blocks = [];
                  };
                ];
              |];
          };
        ];
    }

let test_concealment_allocation () =
  let n = 2048 in
  let data = empty_band_stream n in
  Alcotest.(check int) "stream bytes" 61 (String.length data);
  Gc.full_major ();
  let before = Gc.allocated_bytes () in
  let result = Jpeg2000.Decoder.decode_robust data in
  let allocated = Gc.allocated_bytes () -. before in
  match result with
  | Error e -> Alcotest.failf "refused: %s" (Jpeg2000.Codestream.error_message e)
  | Ok (image, report) ->
    let image_bytes = float_of_int (2 * n * n) in
    if allocated > (1.1 *. image_bytes) +. 1e6 then
      Alcotest.failf "decode_robust allocated %.0f bytes for a %.0f-byte image" allocated
        image_bytes;
    Alcotest.(check int) "concealed tiles" 1 report.Jpeg2000.Decoder.concealed_tiles;
    Alcotest.(check string) "image digest" "eeb4b7ad4602e95c6f307db8f8b4d441"
      (Digest.to_hex (Digest.string (Jpeg2000.Image.to_pnm image)))

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

(* -- structure-aware mutation ---------------------------------------

   Mutants cut, splice, repeat and overwrite at the framing's own
   boundaries, which random byte damage rarely hits: the walk's segment
   ends and the length fields the parser sizes its reads from. *)

(* A tile segment's own header: index, x0, y0, width and height. *)
let tile_header_bytes = 14

(* A well-formed stream with the byte range of each tile segment, as
   the walk ends them, and [(offset, width)] of each length field: the
   tile count (u16), then each component's band count (u8), each band's
   block count (u16) and each pass length (u32). *)
type source = {
  data : string;
  spans : (int * int) array;
  fields : (int * int) array;
}

let source data =
  let s =
    match Jpeg2000.Codestream.parse_result data with
    | Ok s -> s
    | Error e -> failwith (Jpeg2000.Codestream.error_message e)
  in
  let preamble =
    String.length
      (Jpeg2000.Codestream.emit { s with Jpeg2000.Codestream.tiles = [] })
  in
  let _, spans =
    List.fold_left_map
      (fun start e -> (e, (start, e)))
      preamble
      (List.map snd (Jpeg2000.Codestream.parse_prefix data).segments)
  in
  let pos = ref preamble in
  let fields = ref [ (preamble - 2, 2) ] in
  let field width = fields := (!pos, width) :: !fields in
  List.iter
    (fun (tile : Jpeg2000.Codestream.tile_segment) ->
      (* the tile header, then the component count *)
      pos := !pos + tile_header_bytes + 1;
      Array.iter
        (fun bands ->
          field 1;
          pos := !pos + 1;
          List.iter
            (fun (band : Jpeg2000.Codestream.band_segment) ->
              (* level, orientation, width, height, then the count *)
              pos := !pos + 6;
              field 2;
              pos := !pos + 2;
              List.iter
                (fun (blk : Jpeg2000.Codestream.block_segment) ->
                  (* plane count, pass count *)
                  pos := !pos + 2;
                  List.iter
                    (fun pass ->
                      field 4;
                      pos := !pos + 4 + String.length pass)
                    blk.Jpeg2000.Codestream.blk_passes)
                band.Jpeg2000.Codestream.seg_blocks)
            bands)
        tile.Jpeg2000.Codestream.comps)
    s.Jpeg2000.Codestream.tiles;
  assert (!pos = String.length data);
  { data; spans = Array.of_list spans; fields = Array.of_list !fields }

(* Two sources of different geometry and mode, three components each,
   so a segment spliced under the other's header reaches the band
   structure checks. *)
let mutant_sources =
  lazy
    (let lossy =
       Jpeg2000.Encoder.encode
         {
           fuzz_config with
           Jpeg2000.Encoder.tile_w = 16;
           tile_h = 24;
           levels = 1;
           mode = Jpeg2000.Codestream.Lossy;
         }
         (Jpeg2000.Image.smooth ~width:24 ~height:40 ~components:3 ~seed:9)
     in
     [| source (Lazy.force fuzz_stream); source lossy |])

let mutant_gen =
  let open QCheck.Gen in
  let* src = int_range 0 1 in
  let* kind = int_range 0 3 in
  let* a = int_range 0 999_999 in
  let* b = int_range 0 999_999 in
  let* tweak = int_range (-1) 1 in
  let* cut = int_range 0 999_999 in
  let* chunk = int_range 1 512 in
  let sources = Lazy.force mutant_sources in
  let { data; spans; fields } = sources.(src) and other = sources.(1 - src) in
  let n = String.length data in
  let pick arr i = arr.(i mod Array.length arr) in
  let between data lo hi = String.sub data lo (hi - lo) in
  let mutant =
    match kind with
    | 0 ->
      (* a cut one byte before, at or after a boundary *)
      let bounds = 0 :: fst spans.(0) :: Array.to_list (Array.map snd spans) in
      let at = List.nth bounds (a mod List.length bounds) + tweak in
      String.sub data 0 (Stdlib.max 0 (Stdlib.min n at))
    | 1 ->
      (* a segment spliced in from the other stream, whole or under the
         replaced segment's own header *)
      let keep = if tweak = 0 then 0 else tile_header_bytes in
      let lo, hi = pick spans a in
      let olo, ohi = pick other.spans b in
      between data 0 (lo + keep) ^ between other.data (olo + keep) ohi
      ^ between data hi n
    | 2 ->
      (* one length field overwritten: all ones, one off, or anything *)
      let off, width = pick fields a in
      let field = 1 lsl (8 * width) in
      let value =
        match tweak with
        | -1 -> field - 1
        | 0 ->
          let v = ref 0 in
          for i = 0 to width - 1 do
            v := (!v lsl 8) lor Char.code data.[off + i]
          done;
          (!v + if b land 1 = 0 then 1 else field - 1) land (field - 1)
        | _ -> b land (field - 1)
      in
      let bytes = Bytes.of_string data in
      for i = 0 to width - 1 do
        Bytes.set bytes (off + i)
          (Char.chr ((value lsr (8 * (width - 1 - i))) land 0xFF))
      done;
      Bytes.to_string bytes
    | _ ->
      (* one segment repeated *)
      let lo, hi = pick spans a in
      between data 0 hi ^ between data lo n
  in
  return (kind, mutant, cut, chunk)

let mutant_qcheck =
  QCheck.Test.make ~name:"framing mutants never raise" ~count:200
    (QCheck.make
       ~print:(fun (kind, m, cut, chunk) ->
         Printf.sprintf "kind=%d bytes=%d cut=%d chunk=%d" kind
           (String.length m) cut chunk)
       mutant_gen)
    (fun (_, m, cut, chunk) ->
      let walk = Jpeg2000.Codestream.parse_prefix m in
      let result_error =
        match Jpeg2000.Codestream.parse_result m with
        | Ok _ -> None
        | Error e -> Some e
      in
      (match Jpeg2000.Decoder.decode_robust m with Ok _ | Error _ -> ());
      let spec =
        {
          Faults.Ingest.default_spec with
          Faults.Ingest.chunk_bytes = chunk;
        }
      in
      ignore (Serve.Ingest.analyse ~seed:cut spec ~start_ps:0 m);
      let cut = cut mod (String.length m + 1) in
      walk.Jpeg2000.Codestream.error = result_error
      && (Jpeg2000.Codestream.parse_prefix (String.sub m 0 cut)).segments
         = List.filter (fun (_, e) -> e <= cut) walk.segments)

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

let ingest_length = 10_000

let ingest_spec_exn s =
  match Faults.Ingest.parse_spec s with
  | Ok spec -> spec
  | Error e -> Alcotest.failf "bad ingest spec %S: %s" s e

let test_ingest_schedule_deterministic () =
  let spec = ingest_spec_exn "loss=0.1,dup=0.1,reorder=0.2,stall=0.3" in
  let a = Faults.Ingest.schedule ~seed:7 spec ~start_ps:1000 ingest_length in
  let b = Faults.Ingest.schedule ~seed:7 spec ~start_ps:1000 ingest_length in
  Alcotest.(check bool) "equal seeds, equal deliveries" true (a = b);
  let c = Faults.Ingest.schedule ~seed:8 spec ~start_ps:1000 ingest_length in
  Alcotest.(check bool) "different seed, different schedule" true (a <> c)

let test_ingest_schedule_bounds () =
  let spec = ingest_spec_exn "chunk=256,loss=0.2,dup=0.2,reorder=0.3,stall=0.2" in
  let d = Faults.Ingest.schedule ~seed:42 spec ~start_ps:0 ingest_length in
  let n = ingest_length in
  Alcotest.(check int) "sent covers the stream" ((n + 255) / 256)
    d.Faults.Ingest.sent;
  Alcotest.(check int) "chunk count balances"
    (d.Faults.Ingest.sent - d.Faults.Ingest.lost + d.Faults.Ingest.duped)
    (List.length d.Faults.Ingest.chunks);
  (* arrivals sorted, offsets chunk-aligned, lengths the chunk's share *)
  let last = ref min_int in
  List.iter
    (fun (c : Faults.Ingest.chunk) ->
      Alcotest.(check bool) "sorted by arrival" true
        (c.Faults.Ingest.c_arrival_ps >= !last);
      last := c.Faults.Ingest.c_arrival_ps;
      Alcotest.(check int) "aligned offset" 0 (c.Faults.Ingest.c_offset mod 256);
      Alcotest.(check int) "length is the chunk's share"
        (Stdlib.min 256 (n - c.Faults.Ingest.c_offset))
        c.Faults.Ingest.c_length)
    d.Faults.Ingest.chunks;
  (* a lossless schedule's offsets and lengths tile the stream *)
  let clean = ingest_spec_exn "chunk=256" in
  let d0 = Faults.Ingest.schedule ~seed:42 clean ~start_ps:0 ingest_length in
  Alcotest.(check int) "nothing lost" 0 d0.Faults.Ingest.lost;
  let next =
    List.fold_left
      (fun pos (c : Faults.Ingest.chunk) ->
        Alcotest.(check int) "chunk starts where the last ended" pos
          c.Faults.Ingest.c_offset;
        Alcotest.(check bool) "chunk not empty" true
          (c.Faults.Ingest.c_length > 0);
        pos + c.Faults.Ingest.c_length)
      0
      (List.sort
         (fun (a : Faults.Ingest.chunk) b ->
           Int.compare a.Faults.Ingest.c_offset b.Faults.Ingest.c_offset)
         d0.Faults.Ingest.chunks)
  in
  Alcotest.(check int) "chunks end at the stream's end" n next

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
          Alcotest.test_case "block count refused" `Quick
            test_block_count_refused;
          Alcotest.test_case "concealment allocates one image" `Quick
            test_concealment_allocation;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 19 |])
            mutant_qcheck;
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
