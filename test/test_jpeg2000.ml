(* Tests for the JPEG 2000 codec substrate. *)

let qc = QCheck_alcotest.to_alcotest

(* -- Image --------------------------------------------------------- *)

let test_image_basics () =
  let img = Jpeg2000.Image.create ~width:8 ~height:4 ~components:3 () in
  Alcotest.(check int) "width" 8 (Jpeg2000.Image.width img);
  Alcotest.(check int) "height" 4 (Jpeg2000.Image.height img);
  Alcotest.(check int) "components" 3 (Jpeg2000.Image.components img);
  Alcotest.(check int) "max sample" 255 (Jpeg2000.Image.max_sample img);
  Jpeg2000.Image.plane_set img.Jpeg2000.Image.planes.(1) ~x:7 ~y:3 200;
  Alcotest.(check int) "set/get" 200
    (Jpeg2000.Image.plane_get img.Jpeg2000.Image.planes.(1) ~x:7 ~y:3)

let test_image_metrics () =
  let a = Jpeg2000.Image.gradient ~width:16 ~height:16 ~components:1 in
  Alcotest.(check bool) "identical psnr infinite" true
    (Jpeg2000.Image.psnr a a = infinity);
  let b = Jpeg2000.Image.create ~width:16 ~height:16 ~components:1 () in
  Array.blit a.Jpeg2000.Image.planes.(0).Jpeg2000.Image.data 0
    b.Jpeg2000.Image.planes.(0).Jpeg2000.Image.data 0 256;
  Jpeg2000.Image.plane_set b.Jpeg2000.Image.planes.(0) ~x:0 ~y:0
    (Jpeg2000.Image.plane_get a.Jpeg2000.Image.planes.(0) ~x:0 ~y:0 + 16);
  Alcotest.(check (float 1e-9)) "mse of one error" (256.0 /. 256.0)
    (Jpeg2000.Image.mse a b)

let test_generators_in_range () =
  let check_img img =
    Array.iter
      (fun p ->
        Array.iter
          (fun v -> if v < 0 || v > 255 then Alcotest.fail "out of range")
          p.Jpeg2000.Image.data)
      img.Jpeg2000.Image.planes
  in
  check_img (Jpeg2000.Image.gradient ~width:33 ~height:17 ~components:3);
  check_img (Jpeg2000.Image.checkerboard ~width:33 ~height:17 ~components:1 ());
  check_img (Jpeg2000.Image.noise ~width:33 ~height:17 ~components:2 ~seed:3);
  check_img (Jpeg2000.Image.smooth ~width:33 ~height:17 ~components:3 ~seed:5)

let test_generators_deterministic () =
  let a = Jpeg2000.Image.smooth ~width:16 ~height:16 ~components:3 ~seed:11 in
  let b = Jpeg2000.Image.smooth ~width:16 ~height:16 ~components:3 ~seed:11 in
  Alcotest.(check bool) "same seed, same image" true (Jpeg2000.Image.equal a b);
  let c = Jpeg2000.Image.smooth ~width:16 ~height:16 ~components:3 ~seed:12 in
  Alcotest.(check bool) "different seed differs" false (Jpeg2000.Image.equal a c)

let test_pnm_roundtrip () =
  let grey = Jpeg2000.Image.gradient ~width:13 ~height:7 ~components:1 in
  Alcotest.(check bool) "pgm" true
    (Jpeg2000.Image.equal grey (Jpeg2000.Image.of_pnm (Jpeg2000.Image.to_pnm grey)));
  let colour = Jpeg2000.Image.smooth ~width:13 ~height:7 ~components:3 ~seed:2 in
  Alcotest.(check bool) "ppm" true
    (Jpeg2000.Image.equal colour (Jpeg2000.Image.of_pnm (Jpeg2000.Image.to_pnm colour)))

let test_pnm_rejects_garbage () =
  let raised s = try ignore (Jpeg2000.Image.of_pnm s); false with Failure _ -> true in
  Alcotest.(check bool) "bad magic" true (raised "P9\n2 2\n255\nxxxx");
  Alcotest.(check bool) "truncated" true (raised "P5\n4 4\n255\nab")

let test_blit_row_bounds () =
  (* One check guards an unchecked copy loop, so every out-of-range
     side must raise, and a valid copy must write exactly [len]
     samples and nothing beside them. *)
  let src = Jpeg2000.Image.create_plane ~width:6 ~height:3 in
  let dst = Jpeg2000.Image.create_plane ~width:5 ~height:4 in
  Array.iteri (fun i _ -> src.Jpeg2000.Image.data.(i) <- i + 1) src.Jpeg2000.Image.data;
  let blit ?(src_x = 0) ?(src_y = 0) ?(dst_x = 0) ?(dst_y = 0) len () =
    Jpeg2000.Image.blit_row ~src ~src_x ~src_y ~dst ~dst_x ~dst_y ~len
  in
  let rejects name f =
    Alcotest.check_raises name
      (Invalid_argument "Image.blit_row: row out of bounds") f
  in
  rejects "negative src_x" (blit ~src_x:(-1) 2);
  rejects "negative src_y" (blit ~src_y:(-1) 2);
  rejects "negative dst_x" (blit ~dst_x:(-1) 2);
  rejects "negative dst_y" (blit ~dst_y:(-1) 2);
  rejects "src_x + len past src width" (blit ~src_x:2 5);
  rejects "dst_x + len past dst width" (blit ~dst_x:1 5);
  rejects "src_y past src height" (blit ~src_y:3 1);
  rejects "dst_y past dst height" (blit ~dst_y:4 1);
  rejects "negative len" (blit (-1));
  Alcotest.(check bool) "failed calls write nothing" true
    (Array.for_all (( = ) 0) dst.Jpeg2000.Image.data);
  blit ~src_x:2 ~src_y:1 ~dst_x:1 ~dst_y:2 3 ();
  let expected = Array.make (5 * 4) 0 in
  Array.blit src.Jpeg2000.Image.data ((1 * 6) + 2) expected ((2 * 5) + 1) 3;
  Alcotest.(check (array int)) "exactly len samples copied" expected
    dst.Jpeg2000.Image.data;
  blit ~src_x:6 ~dst_x:5 ~src_y:2 ~dst_y:3 0 ();
  Alcotest.(check (array int)) "len 0 at the far edge is a no-op" expected
    dst.Jpeg2000.Image.data

(* -- Tile ---------------------------------------------------------- *)

let test_tile_split_assemble () =
  let img = Jpeg2000.Image.smooth ~width:50 ~height:30 ~components:3 ~seed:1 in
  let tiles = Jpeg2000.Tile.split img ~tile_w:16 ~tile_h:16 in
  Alcotest.(check int) "tile count" (4 * 2) (List.length tiles);
  let back =
    Jpeg2000.Tile.assemble ~width:50 ~height:30 ~components:3 tiles
  in
  Alcotest.(check bool) "assemble inverts split" true
    (Jpeg2000.Image.equal img back)

let test_tile_border_sizes () =
  let img = Jpeg2000.Image.gradient ~width:50 ~height:30 ~components:1 in
  let tiles = Jpeg2000.Tile.split img ~tile_w:16 ~tile_h:16 in
  let last = List.nth tiles (List.length tiles - 1) in
  Alcotest.(check int) "border width" 2 (Jpeg2000.Tile.width last);
  Alcotest.(check int) "border height" 14 (Jpeg2000.Tile.height last);
  Alcotest.(check int) "samples" (2 * 14) (Jpeg2000.Tile.samples last)

let tile_roundtrip_qcheck =
  QCheck.Test.make ~name:"tile split/assemble is identity" ~count:50
    QCheck.(
      quad (int_range 1 40) (int_range 1 40) (int_range 1 17) (int_range 1 17))
    (fun (w, h, tw, th) ->
      let img = Jpeg2000.Image.noise ~width:w ~height:h ~components:2 ~seed:(w + h) in
      let tiles = Jpeg2000.Tile.split img ~tile_w:tw ~tile_h:th in
      Jpeg2000.Image.equal img
        (Jpeg2000.Tile.assemble ~width:w ~height:h ~components:2 tiles))

(* -- Colour -------------------------------------------------------- *)

let test_dc_shift () =
  let samples = [| 0; 128; 255 |] in
  Jpeg2000.Colour.dc_shift_forward ~bit_depth:8 samples;
  Alcotest.(check (array int)) "shifted" [| -128; 0; 127 |] samples;
  Jpeg2000.Colour.dc_shift_inverse ~bit_depth:8 samples;
  Alcotest.(check (array int)) "restored" [| 0; 128; 255 |] samples

let test_dc_shift_clamps () =
  let samples = [| -300; 300 |] in
  Jpeg2000.Colour.dc_shift_inverse ~bit_depth:8 samples;
  Alcotest.(check (array int)) "clamped" [| 0; 255 |] samples

let rct_roundtrip_qcheck =
  QCheck.Test.make ~name:"RCT is exactly reversible" ~count:300
    QCheck.(triple (int_range (-128) 127) (int_range (-128) 127) (int_range (-128) 127))
    (fun (r0, g0, b0) ->
      let r = [| r0 |] and g = [| g0 |] and b = [| b0 |] in
      Jpeg2000.Colour.rct_forward r g b;
      Jpeg2000.Colour.rct_inverse r g b;
      r.(0) = r0 && g.(0) = g0 && b.(0) = b0)

let ict_roundtrip_qcheck =
  QCheck.Test.make ~name:"ICT round-trips within 1e-10" ~count:300
    QCheck.(
      triple (float_range (-128.0) 127.0) (float_range (-128.0) 127.0)
        (float_range (-128.0) 127.0))
    (fun (r0, g0, b0) ->
      let r = [| r0 |] and g = [| g0 |] and b = [| b0 |] in
      Jpeg2000.Colour.ict_forward r g b;
      Jpeg2000.Colour.ict_inverse r g b;
      Float.abs (r.(0) -. r0) < 1e-10
      && Float.abs (g.(0) -. g0) < 1e-10
      && Float.abs (b.(0) -. b0) < 1e-10)

(* -- Subband geometry ---------------------------------------------- *)

let test_subband_decompose () =
  let bands = Jpeg2000.Subband.decompose ~width:32 ~height:32 ~levels:2 in
  Alcotest.(check int) "1 LL + 2x3 details" 7 (List.length bands);
  (match bands with
  | ll :: _ ->
    Alcotest.(check int) "LL level" 2 ll.Jpeg2000.Subband.level;
    Alcotest.(check int) "LL width" 8 ll.Jpeg2000.Subband.w
  | [] -> Alcotest.fail "no bands");
  (* Bands must tile the full rectangle without overlap. *)
  let covered = Array.make (32 * 32) 0 in
  List.iter
    (fun b ->
      for y = b.Jpeg2000.Subband.y0 to b.Jpeg2000.Subband.y0 + b.Jpeg2000.Subband.h - 1 do
        for x = b.Jpeg2000.Subband.x0 to b.Jpeg2000.Subband.x0 + b.Jpeg2000.Subband.w - 1 do
          covered.((y * 32) + x) <- covered.((y * 32) + x) + 1
        done
      done)
    bands;
  Alcotest.(check bool) "exact cover" true (Array.for_all (fun c -> c = 1) covered)

let subband_cover_qcheck =
  QCheck.Test.make ~name:"subbands partition the tile for any size" ~count:100
    QCheck.(triple (int_range 1 40) (int_range 1 40) (int_range 0 4))
    (fun (w, h, levels) ->
      let bands = Jpeg2000.Subband.decompose ~width:w ~height:h ~levels in
      let covered = Array.make (w * h) 0 in
      List.iter
        (fun b ->
          for y = b.Jpeg2000.Subband.y0 to b.Jpeg2000.Subband.y0 + b.Jpeg2000.Subband.h - 1 do
            for x = b.Jpeg2000.Subband.x0 to b.Jpeg2000.Subband.x0 + b.Jpeg2000.Subband.w - 1 do
              covered.((y * w) + x) <- covered.((y * w) + x) + 1
            done
          done)
        bands;
      Array.for_all (fun c -> c = 1) covered)

(* -- DWT ------------------------------------------------------------ *)

let test_dwt53_known_line () =
  (* A constant line must produce constant lows and zero highs. *)
  let out = Jpeg2000.Dwt53.forward_1d (Array.make 8 10) in
  Alcotest.(check (array int)) "constant signal"
    [| 10; 10; 10; 10; 0; 0; 0; 0 |] out

let test_dwt53_singleton () =
  Alcotest.(check (array int)) "length 1 unchanged" [| 42 |]
    (Jpeg2000.Dwt53.forward_1d [| 42 |])

let dwt53_1d_roundtrip_qcheck =
  QCheck.Test.make ~name:"5/3 1-D forward/inverse identity" ~count:300
    QCheck.(list_of_size Gen.(1 -- 64) (int_range (-2048) 2048))
    (fun values ->
      let src = Array.of_list values in
      Jpeg2000.Dwt53.inverse_1d (Jpeg2000.Dwt53.forward_1d src) = src)

let dwt53_2d_roundtrip_qcheck =
  QCheck.Test.make ~name:"5/3 2-D multi-level identity" ~count:60
    QCheck.(triple (int_range 1 33) (int_range 1 33) (int_range 0 4))
    (fun (w, h, levels) ->
      let plane = Jpeg2000.Image.create_plane ~width:w ~height:h in
      Array.iteri
        (fun i _ -> plane.Jpeg2000.Image.data.(i) <- ((i * 97) mod 511) - 255)
        plane.Jpeg2000.Image.data;
      let orig = Array.copy plane.Jpeg2000.Image.data in
      Jpeg2000.Dwt53.forward_plane plane ~levels;
      Jpeg2000.Dwt53.inverse_plane plane ~levels;
      plane.Jpeg2000.Image.data = orig)

let test_dwt97_constant_line () =
  let out = Jpeg2000.Dwt97.forward_1d (Array.make 8 10.0) in
  (* DC gain of the scaled low-pass is 1; highs vanish. *)
  for i = 0 to 3 do
    if Float.abs (out.(i) -. 10.0) > 1e-9 then
      Alcotest.failf "low[%d] = %f" i out.(i)
  done;
  for i = 4 to 7 do
    if Float.abs out.(i) > 1e-9 then Alcotest.failf "high[%d] = %f" i out.(i)
  done

let dwt97_roundtrip_qcheck =
  QCheck.Test.make ~name:"9/7 2-D round-trip within 1e-6" ~count:60
    QCheck.(triple (int_range 1 33) (int_range 1 33) (int_range 0 4))
    (fun (w, h, levels) ->
      let m = Jpeg2000.Dwt97.matrix_create ~w ~h in
      Array.iteri
        (fun i _ ->
          m.Jpeg2000.Dwt97.values.(i) <- float_of_int (((i * 97) mod 511) - 255))
        m.Jpeg2000.Dwt97.values;
      let orig = Array.copy m.Jpeg2000.Dwt97.values in
      Jpeg2000.Dwt97.forward m ~levels;
      Jpeg2000.Dwt97.inverse m ~levels;
      Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-6) m.Jpeg2000.Dwt97.values orig)

(* -- Quantiser ------------------------------------------------------ *)

let test_quant_steps_ordered () =
  (* Deeper bands must be quantised more finely. *)
  let step level =
    Jpeg2000.Quant.step_for ~base_step:2.0 ~levels:3 ~level Jpeg2000.Subband.HL
  in
  Alcotest.(check bool) "level 3 finer than level 1" true (step 3 < step 1);
  let hh = Jpeg2000.Quant.step_for ~base_step:2.0 ~levels:3 ~level:1 Jpeg2000.Subband.HH in
  let hl = Jpeg2000.Quant.step_for ~base_step:2.0 ~levels:3 ~level:1 Jpeg2000.Subband.HL in
  Alcotest.(check bool) "HH coarser than HL" true (hh > hl)

let quant_error_bound_qcheck =
  QCheck.Test.make ~name:"quantiser error bounded by one step" ~count:300
    QCheck.(pair (float_range 0.1 8.0) (list_of_size Gen.(1 -- 50) (float_range (-1000.0) 1000.0)))
    (fun (step, values) ->
      let xs = Array.of_list values in
      let back = Jpeg2000.Quant.dequantise ~step (Jpeg2000.Quant.quantise ~step xs) in
      Array.for_all2
        (fun x r -> Float.abs (x -. r) <= Jpeg2000.Quant.max_error ~step +. 1e-9)
        xs back)

let test_quant_zero_stays_zero () =
  Alcotest.(check (array int)) "zeros" [| 0; 0 |]
    (Jpeg2000.Quant.quantise ~step:1.5 [| 0.0; 0.4 |])

(* -- MQ coder ------------------------------------------------------- *)

let test_mq_empty_flush () =
  let enc = Jpeg2000.Mq.encoder () in
  let data = Jpeg2000.Mq.flush enc in
  Alcotest.(check bool) "terminates" true (String.length data <= 3)

let test_mq_stuffing_pattern () =
  (* Long runs of LPS force renormalisation traffic; the stream must
     never contain 0xFF followed by a byte > 0x8F (marker range). *)
  let ctx = Jpeg2000.Mq.context () in
  let enc = Jpeg2000.Mq.encoder () in
  for i = 0 to 4000 do
    Jpeg2000.Mq.encode enc ctx (if i mod 5 = 0 then 1 else 0)
  done;
  let data = Jpeg2000.Mq.flush enc in
  for i = 0 to String.length data - 2 do
    if Char.code data.[i] = 0xFF && Char.code data.[i + 1] > 0x8F then
      Alcotest.failf "marker emitted at %d" i
  done

let mq_roundtrip_qcheck =
  QCheck.Test.make ~name:"MQ encode/decode identity (random contexts)"
    ~count:100
    QCheck.(
      pair (int_range 1 6)
        (list_of_size Gen.(1 -- 2000) (pair (int_bound 5) (int_bound 1))))
    (fun (nctx, stream) ->
      let enc_ctx = Array.init nctx (fun _ -> Jpeg2000.Mq.context ()) in
      let enc = Jpeg2000.Mq.encoder () in
      List.iter
        (fun (c, bit) -> Jpeg2000.Mq.encode enc enc_ctx.(c mod nctx) bit)
        stream;
      let data = Jpeg2000.Mq.flush enc in
      let dec_ctx = Array.init nctx (fun _ -> Jpeg2000.Mq.context ()) in
      let dec = Jpeg2000.Mq.decoder data in
      List.for_all
        (fun (c, bit) -> Jpeg2000.Mq.decode dec dec_ctx.(c mod nctx) = bit)
        stream)

let mq_skewed_roundtrip_qcheck =
  QCheck.Test.make ~name:"MQ identity on heavily skewed bit streams" ~count:60
    QCheck.(list_of_size Gen.(1 -- 3000) (int_bound 99))
    (fun stream ->
      (* 1% ones: exercises the high-compression end of the table. *)
      let bits = List.map (fun v -> if v = 0 then 1 else 0) stream in
      let ctx = Jpeg2000.Mq.context () in
      let enc = Jpeg2000.Mq.encoder () in
      List.iter (Jpeg2000.Mq.encode enc ctx) bits;
      let data = Jpeg2000.Mq.flush enc in
      let ctx2 = Jpeg2000.Mq.context () in
      let dec = Jpeg2000.Mq.decoder data in
      List.for_all (fun bit -> Jpeg2000.Mq.decode dec ctx2 = bit) bits)

let test_mq_compression_on_skewed_input () =
  let ctx = Jpeg2000.Mq.context () in
  let enc = Jpeg2000.Mq.encoder () in
  let n = 8192 in
  for i = 0 to n - 1 do
    Jpeg2000.Mq.encode enc ctx (if i mod 100 = 0 then 1 else 0)
  done;
  let data = Jpeg2000.Mq.flush enc in
  (* 8192 highly skewed bits must compress far below 1024 bytes. *)
  Alcotest.(check bool) "adaptive compression works" true
    (String.length data < 200)

let test_mq_context_isolation () =
  let c0 = Jpeg2000.Mq.context () in
  let c1 = Jpeg2000.Mq.context () in
  let enc = Jpeg2000.Mq.encoder () in
  for _ = 1 to 100 do
    Jpeg2000.Mq.encode enc c0 0;
    Jpeg2000.Mq.encode enc c1 1
  done;
  Alcotest.(check bool) "contexts adapt independently" true
    (Jpeg2000.Mq.context_mps c0 = 0 && Jpeg2000.Mq.context_mps c1 = 1);
  ignore (Jpeg2000.Mq.flush enc)

(* -- T1 -------------------------------------------------------------- *)

let test_t1_num_planes () =
  Alcotest.(check int) "zero" 0 (Jpeg2000.T1.num_planes [| 0; 0 |]);
  Alcotest.(check int) "one" 1 (Jpeg2000.T1.num_planes [| 1; 0; -1 |]);
  Alcotest.(check int) "255 needs 8" 8 (Jpeg2000.T1.num_planes [| -255 |]);
  Alcotest.(check int) "256 needs 9" 9 (Jpeg2000.T1.num_planes [| 256 |])

let test_t1_zero_block () =
  let planes, data =
    Jpeg2000.T1.encode_block ~orientation:Jpeg2000.Subband.LL ~w:8 ~h:8
      (Array.make 64 0)
  in
  Alcotest.(check int) "no planes" 0 planes;
  Alcotest.(check string) "no data" "" data;
  Alcotest.(check (array int)) "decodes to zeros" (Array.make 64 0)
    (Jpeg2000.T1.decode_block ~orientation:Jpeg2000.Subband.LL ~w:8 ~h:8
       ~planes:0 "")

let test_t1_single_coefficient () =
  List.iter
    (fun (x, y, v) ->
      let w = 7 and h = 9 in
      let coeffs = Array.make (w * h) 0 in
      coeffs.((y * w) + x) <- v;
      let planes, data =
        Jpeg2000.T1.encode_block ~orientation:Jpeg2000.Subband.HH ~w ~h coeffs
      in
      let back =
        Jpeg2000.T1.decode_block ~orientation:Jpeg2000.Subband.HH ~w ~h ~planes data
      in
      Alcotest.(check (array int))
        (Printf.sprintf "impulse at %d,%d" x y)
        coeffs back)
    [ (0, 0, 5); (6, 8, -77); (3, 4, 1); (6, 0, -1); (0, 8, 1023) ]

let t1_roundtrip_all_bands_qcheck =
  QCheck.Test.make ~name:"T1 identity on random blocks, every band type"
    ~count:120
    QCheck.(
      quad (int_range 1 20) (int_range 1 20) (int_bound 3)
        (pair (int_range 0 12) small_int))
    (fun (w, h, band_code, (magnitude_bits, seed)) ->
      let orientation = Jpeg2000.Subband.orientation_of_code band_code in
      let state = ref (seed + 1) in
      let next () =
        state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
        !state
      in
      let bound = (1 lsl magnitude_bits) - 1 in
      let coeffs =
        Array.init (w * h) (fun _ ->
            if bound = 0 then 0
            else
              let v = next () mod (bound + 1) in
              if next () land 1 = 0 then v else -v)
      in
      let planes, data =
        Jpeg2000.T1.encode_block ~orientation ~w ~h coeffs
      in
      Jpeg2000.T1.decode_block ~orientation ~w ~h ~planes data = coeffs)

let t1_sparse_roundtrip_qcheck =
  QCheck.Test.make ~name:"T1 identity on sparse blocks (cleanup heavy)"
    ~count:100
    QCheck.(pair (int_range 4 32) small_int)
    (fun (size, seed) ->
      let w = size and h = size in
      let state = ref (seed + 7) in
      let next () =
        state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
        !state
      in
      let coeffs =
        Array.init (w * h) (fun _ ->
            if next () mod 23 = 0 then (next () mod 511) - 255 else 0)
      in
      let planes, data =
        Jpeg2000.T1.encode_block ~orientation:Jpeg2000.Subband.LH ~w ~h coeffs
      in
      Jpeg2000.T1.decode_block ~orientation:Jpeg2000.Subband.LH ~w ~h ~planes data
      = coeffs)

let t1_lut_equals_reference_qcheck =
  QCheck.Test.make
    ~name:"T1 packed-LUT path emits the reference path's exact codewords"
    ~count:100
    QCheck.(
      quad (int_range 1 20) (int_range 1 20) (int_bound 3) small_int)
    (fun (w, h, band_code, seed) ->
      let orientation = Jpeg2000.Subband.orientation_of_code band_code in
      let state = ref (seed + 3) in
      let next () =
        state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
        !state
      in
      let coeffs =
        Array.init (w * h) (fun _ ->
            if next () mod 3 = 0 then (next () mod 1023) - 511 else 0)
      in
      let p_lut, d_lut =
        Jpeg2000.T1.encode_block ~lut:true ~orientation ~w ~h coeffs
      in
      let p_ref, d_ref =
        Jpeg2000.T1.encode_block ~lut:false ~orientation ~w ~h coeffs
      in
      let sp_lut, sd_lut =
        Jpeg2000.T1.encode_block_scalable ~lut:true ~orientation ~w ~h coeffs
      in
      let sp_ref, sd_ref =
        Jpeg2000.T1.encode_block_scalable ~lut:false ~orientation ~w ~h coeffs
      in
      (* Same bits out of both encoders, and each decoder inverts the
         other encoder's stream. *)
      p_lut = p_ref && d_lut = d_ref && sp_lut = sp_ref && sd_lut = sd_ref
      && Jpeg2000.T1.decode_block ~lut:false ~orientation ~w ~h ~planes:p_lut
           d_lut
         = coeffs
      && Jpeg2000.T1.decode_block ~lut:true ~orientation ~w ~h ~planes:p_ref
           d_ref
         = coeffs
      && Jpeg2000.T1.decode_block_scalable ~lut:false ~orientation ~w ~h
           ~planes:sp_lut sd_lut
         = coeffs)

let test_t1_compresses_structure () =
  (* A structured block must code smaller than raw size. *)
  let w = 32 and h = 32 in
  let coeffs =
    Array.init (w * h) (fun i -> if i mod 64 < 2 then 100 else 0)
  in
  let _, data =
    Jpeg2000.T1.encode_block ~orientation:Jpeg2000.Subband.LL ~w ~h coeffs
  in
  Alcotest.(check bool) "compressed below 1 bit/coeff" true
    (String.length data < (w * h) / 8)

let test_orientation_codes () =
  List.iter
    (fun o ->
      Alcotest.(check bool) "code round-trips" true
        (Jpeg2000.Subband.orientation_of_code (Jpeg2000.Subband.orientation_code o) = o))
    [ Jpeg2000.Subband.LL; HL; LH; HH ];
  Alcotest.(check bool) "bad code rejected" true
    (try ignore (Jpeg2000.Subband.orientation_of_code 7); false
     with Invalid_argument _ -> true)

let test_subband_gains () =
  Alcotest.(check int) "LL" 0 (Jpeg2000.Subband.gain_log2 Jpeg2000.Subband.LL);
  Alcotest.(check int) "HL" 1 (Jpeg2000.Subband.gain_log2 Jpeg2000.Subband.HL);
  Alcotest.(check int) "HH" 2 (Jpeg2000.Subband.gain_log2 Jpeg2000.Subband.HH)

let test_image_file_io () =
  let img = Jpeg2000.Image.smooth ~width:21 ~height:13 ~components:3 ~seed:77 in
  let path = Filename.temp_file "j2k_test" ".ppm" in
  Jpeg2000.Image.save_pnm img path;
  let back = Jpeg2000.Image.load_pnm path in
  Sys.remove path;
  Alcotest.(check bool) "file round-trip" true (Jpeg2000.Image.equal img back)

let test_encoder_rejects_bad_config () =
  let img = Jpeg2000.Image.gradient ~width:8 ~height:8 ~components:1 in
  let raised config =
    try ignore (Jpeg2000.Encoder.encode config img); false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "zero tile" true
    (raised { Jpeg2000.Encoder.default_lossless with tile_w = 0 });
  Alcotest.(check bool) "negative levels" true
    (raised { Jpeg2000.Encoder.default_lossless with levels = -1 });
  Alcotest.(check bool) "zero code block" true
    (raised { Jpeg2000.Encoder.default_lossless with code_block = 0 });
  Alcotest.(check bool) "bad step" true
    (raised { Jpeg2000.Encoder.default_lossy with base_step = 0.0 })

(* -- Codestream ------------------------------------------------------ *)

let sample_stream () =
  let img = Jpeg2000.Image.smooth ~width:40 ~height:24 ~components:3 ~seed:3 in
  let config = { Jpeg2000.Encoder.default_lossless with tile_w = 16; tile_h = 16 } in
  (img, Jpeg2000.Encoder.encode config img)

let test_codestream_roundtrip () =
  let _, data = sample_stream () in
  let parsed = Jpeg2000.Codestream.parse data in
  Alcotest.(check string) "emit . parse = id" data
    (Jpeg2000.Codestream.emit parsed);
  Alcotest.(check int) "tiles" 6 (List.length parsed.Jpeg2000.Codestream.tiles)

let test_block_grid () =
  Alcotest.(check int) "exact fit" 4
    (List.length (Jpeg2000.Codestream.block_grid ~code_block:16 ~w:32 ~h:32));
  Alcotest.(check (list (pair int int))) "border block sizes"
    [ (16, 16); (4, 16); (16, 3); (4, 3) ]
    (List.map
       (fun (_, _, w, h) -> (w, h))
       (Jpeg2000.Codestream.block_grid ~code_block:16 ~w:20 ~h:19));
  Alcotest.(check int) "degenerate" 0
    (List.length (Jpeg2000.Codestream.block_grid ~code_block:16 ~w:0 ~h:8))

let test_code_block_size_invariance () =
  (* Different code-block sizes change the stream layout but the
     lossless decode must stay bit-exact. *)
  let img = Jpeg2000.Image.smooth ~width:48 ~height:40 ~components:3 ~seed:11 in
  List.iter
    (fun cb ->
      let config =
        { Jpeg2000.Encoder.default_lossless with tile_w = 48; tile_h = 40; code_block = cb }
      in
      let out = Jpeg2000.Decoder.decode (Jpeg2000.Encoder.encode config img) in
      Alcotest.(check bool)
        (Printf.sprintf "cb=%d bit exact" cb)
        true
        (Jpeg2000.Image.equal img out))
    [ 4; 8; 16; 64 ]

let test_smaller_blocks_cost_more_bytes () =
  (* Each block restarts its contexts and terminates its own MQ
     codeword, so smaller blocks compress worse. *)
  let img = Jpeg2000.Image.smooth ~width:64 ~height:64 ~components:1 ~seed:5 in
  let size cb =
    String.length
      (Jpeg2000.Encoder.encode
         { Jpeg2000.Encoder.default_lossless with tile_w = 64; tile_h = 64; code_block = cb }
         img)
  in
  Alcotest.(check bool) "4 < 64 block efficiency" true (size 4 > size 64)

let test_codestream_rejects_corruption () =
  let _, data = sample_stream () in
  let raised s = try ignore (Jpeg2000.Codestream.parse s); false with Failure _ -> true in
  Alcotest.(check bool) "bad magic" true (raised ("XXXX" ^ String.sub data 4 (String.length data - 4)));
  Alcotest.(check bool) "truncated" true (raised (String.sub data 0 (String.length data / 2)));
  Alcotest.(check bool) "trailing" true (raised (data ^ "z"))

(* -- Full codec ------------------------------------------------------ *)

let test_lossless_roundtrip_colour () =
  let img, data = sample_stream () in
  let out = Jpeg2000.Decoder.decode data in
  Alcotest.(check bool) "bit exact" true (Jpeg2000.Image.equal img out)

let test_lossless_roundtrip_grey () =
  let img = Jpeg2000.Image.checkerboard ~width:37 ~height:29 ~components:1 () in
  let config = { Jpeg2000.Encoder.default_lossless with tile_w = 20; tile_h = 20 } in
  let out = Jpeg2000.Decoder.decode (Jpeg2000.Encoder.encode config img) in
  Alcotest.(check bool) "bit exact" true (Jpeg2000.Image.equal img out)

let test_lossy_quality () =
  let img = Jpeg2000.Image.smooth ~width:64 ~height:64 ~components:3 ~seed:9 in
  let config = { Jpeg2000.Encoder.default_lossy with tile_w = 32; tile_h = 32 } in
  let data = Jpeg2000.Encoder.encode config img in
  let out = Jpeg2000.Decoder.decode data in
  let psnr = Jpeg2000.Image.psnr img out in
  Alcotest.(check bool) (Printf.sprintf "psnr %.1f > 35 dB" psnr) true (psnr > 35.0)

let test_lossy_rate_quality_tradeoff () =
  let img = Jpeg2000.Image.smooth ~width:64 ~height:64 ~components:1 ~seed:4 in
  let encode_with step =
    let config =
      { Jpeg2000.Encoder.default_lossy with tile_w = 64; tile_h = 64; base_step = step }
    in
    let data = Jpeg2000.Encoder.encode config img in
    (String.length data, Jpeg2000.Image.psnr img (Jpeg2000.Decoder.decode data))
  in
  let fine_size, fine_psnr = encode_with 1.0 in
  let coarse_size, coarse_psnr = encode_with 8.0 in
  Alcotest.(check bool) "coarser step compresses more" true (coarse_size < fine_size);
  Alcotest.(check bool) "finer step has higher quality" true (fine_psnr > coarse_psnr)

let test_lossless_compresses_smooth_content () =
  let img = Jpeg2000.Image.smooth ~width:128 ~height:128 ~components:1 ~seed:5 in
  let data = Jpeg2000.Encoder.encode Jpeg2000.Encoder.default_lossless img in
  Alcotest.(check bool) "below raw size" true (String.length data < 128 * 128)

let lossless_roundtrip_qcheck =
  QCheck.Test.make ~name:"lossless codec is identity on random images"
    ~count:20
    QCheck.(
      quad (int_range 4 48) (int_range 4 48) (int_range 1 3) (int_range 0 1000))
    (fun (w, h, comps, seed) ->
      let img =
        if seed mod 2 = 0 then Jpeg2000.Image.smooth ~width:w ~height:h ~components:comps ~seed
        else Jpeg2000.Image.noise ~width:w ~height:h ~components:comps ~seed
      in
      let config =
        { Jpeg2000.Encoder.default_lossless with tile_w = 17; tile_h = 23; levels = 2 }
      in
      let out = Jpeg2000.Decoder.decode (Jpeg2000.Encoder.encode config img) in
      Jpeg2000.Image.equal img out)

let t1_scalable_roundtrip_qcheck =
  QCheck.Test.make ~name:"scalable T1 with all passes equals plain T1" ~count:60
    QCheck.(pair (int_range 2 20) small_int)
    (fun (size, seed) ->
      let w = size and h = size in
      let state = ref (seed + 3) in
      let next () =
        state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
        !state
      in
      let coeffs =
        Array.init (w * h) (fun _ ->
            if next () mod 7 = 0 then (next () mod 255) - 127 else 0)
      in
      let planes, passes =
        Jpeg2000.T1.encode_block_scalable ~orientation:Jpeg2000.Subband.HL ~w ~h
          coeffs
      in
      List.length passes = Jpeg2000.T1.total_passes ~planes
      && Jpeg2000.T1.decode_block_scalable ~orientation:Jpeg2000.Subband.HL ~w
           ~h ~planes passes
         = coeffs)

let test_t1_pass_prefix_monotone () =
  (* Decoding more passes must never lose magnitude information:
     every prefix reconstruction is the exact coefficients with the
     lower bit-planes still zero. *)
  let w = 16 and h = 16 in
  let coeffs = Array.init (w * h) (fun i -> ((i * 53) mod 255) - 127) in
  let planes, passes =
    Jpeg2000.T1.encode_block_scalable ~orientation:Jpeg2000.Subband.LL ~w ~h coeffs
  in
  let err k =
    let prefix = List.filteri (fun i _ -> i < k) passes in
    let got =
      Jpeg2000.T1.decode_block_scalable ~orientation:Jpeg2000.Subband.LL ~w ~h
        ~planes prefix
    in
    Array.fold_left ( + ) 0
      (Array.mapi (fun i v -> abs (v - coeffs.(i))) got)
  in
  let total = Jpeg2000.T1.total_passes ~planes in
  let errors = List.init (total + 1) err in
  let rec non_increasing = function
    | a :: (b :: _ as rest) -> a >= b && non_increasing rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "error shrinks with passes" true (non_increasing errors);
  Alcotest.(check int) "all passes exact" 0 (List.nth errors total)

let test_progressive_decode_quality () =
  let img = Jpeg2000.Image.smooth ~width:64 ~height:64 ~components:1 ~seed:8 in
  let data =
    Jpeg2000.Encoder.encode
      { Jpeg2000.Encoder.default_lossless with tile_w = 64; tile_h = 64 }
      img
  in
  let psnr_at k =
    Jpeg2000.Image.psnr img (Jpeg2000.Decoder.decode_progressive ~max_passes:k data)
  in
  let coarse = psnr_at 4 and mid = psnr_at 10 in
  Alcotest.(check bool)
    (Printf.sprintf "quality grows with passes (%.1f < %.1f dB)" coarse mid)
    true (coarse < mid);
  Alcotest.(check bool) "all passes are lossless" true
    (psnr_at 1000 = infinity)

let test_reduced_resolution_decode () =
  let img = Jpeg2000.Image.smooth ~width:128 ~height:96 ~components:3 ~seed:21 in
  let config =
    { Jpeg2000.Encoder.default_lossless with tile_w = 64; tile_h = 32; levels = 3 }
  in
  let data = Jpeg2000.Encoder.encode config img in
  (* d = 0 must equal the full decode. *)
  Alcotest.(check bool) "d=0 is the full image" true
    (Jpeg2000.Image.equal (Jpeg2000.Decoder.decode data)
       (Jpeg2000.Decoder.decode_reduced ~discard_levels:0 data));
  (* d = 1: half dimensions, and the content must track a reference
     half-resolution image (the 5/3 low-pass of the original). *)
  let half = Jpeg2000.Decoder.decode_reduced ~discard_levels:1 data in
  Alcotest.(check int) "half width" 64 (Jpeg2000.Image.width half);
  Alcotest.(check int) "half height" 48 (Jpeg2000.Image.height half);
  let d2 = Jpeg2000.Decoder.decode_reduced ~discard_levels:2 data in
  Alcotest.(check int) "quarter width" 32 (Jpeg2000.Image.width d2);
  (* Downscaling the half image again must stay close to the quarter
     image (both are wavelet low-passes of the same content). *)
  Alcotest.(check bool) "pyramid is consistent" true
    (Jpeg2000.Image.psnr
       (Jpeg2000.Decoder.decode_reduced ~discard_levels:2 data)
       d2
    = infinity)

let test_reduced_resolution_lossy_brightness () =
  (* The K-compensation must keep the mean brightness in place. *)
  let img = Jpeg2000.Image.smooth ~width:64 ~height:64 ~components:1 ~seed:33 in
  let data =
    Jpeg2000.Encoder.encode
      { Jpeg2000.Encoder.default_lossy with tile_w = 64; tile_h = 64 }
      img
  in
  let mean image =
    let p = image.Jpeg2000.Image.planes.(0) in
    float_of_int (Array.fold_left ( + ) 0 p.Jpeg2000.Image.data)
    /. float_of_int (Array.length p.Jpeg2000.Image.data)
  in
  let full = Jpeg2000.Decoder.decode data in
  let half = Jpeg2000.Decoder.decode_reduced ~discard_levels:1 data in
  Alcotest.(check int) "half size" 32 (Jpeg2000.Image.width half);
  Alcotest.(check bool)
    (Printf.sprintf "brightness preserved (%.1f vs %.1f)" (mean half) (mean full))
    true
    (Float.abs (mean half -. mean full) < 4.0)

let test_reduced_resolution_rejects_bad_args () =
  let img = Jpeg2000.Image.smooth ~width:32 ~height:32 ~components:1 ~seed:1 in
  let data =
    Jpeg2000.Encoder.encode
      { Jpeg2000.Encoder.default_lossless with tile_w = 32; tile_h = 32; levels = 2 }
      img
  in
  let rejected d =
    try ignore (Jpeg2000.Decoder.decode_reduced ~discard_levels:d data); false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "too many levels" true (rejected 3);
  Alcotest.(check bool) "negative" true (rejected (-1))

let test_decoder_survives_payload_corruption () =
  (* Corrupting an entropy payload may fail parsing or produce a
     wrong image, but must never hang or crash the decoder. *)
  let img = Jpeg2000.Image.smooth ~width:48 ~height:48 ~components:1 ~seed:3 in
  let data =
    Jpeg2000.Encoder.encode
      { Jpeg2000.Encoder.default_lossless with tile_w = 24; tile_h = 24 }
      img
  in
  let corrupt at =
    let b = Bytes.of_string data in
    Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 0x5A));
    Bytes.to_string b
  in
  List.iter
    (fun at ->
      match Jpeg2000.Decoder.decode (corrupt at) with
      | _ -> ()
      | exception Failure _ -> ()
      | exception Invalid_argument _ -> ())
    [ String.length data / 2; String.length data - 5; 40 ]

let test_region_decode () =
  let img = Jpeg2000.Image.smooth ~width:96 ~height:64 ~components:3 ~seed:14 in
  let data =
    Jpeg2000.Encoder.encode
      { Jpeg2000.Encoder.default_lossless with tile_w = 32; tile_h = 32 }
      img
  in
  (* A window crossing tile boundaries must equal the crop of the
     full decode. *)
  let x = 25 and y = 10 and w = 40 and h = 30 in
  let region = Jpeg2000.Decoder.decode_region ~x ~y ~w ~h data in
  Alcotest.(check int) "region width" w (Jpeg2000.Image.width region);
  let full = Jpeg2000.Decoder.decode data in
  let matches = ref true in
  for c = 0 to 2 do
    for ry = 0 to h - 1 do
      for rx = 0 to w - 1 do
        if
          Jpeg2000.Image.plane_get region.Jpeg2000.Image.planes.(c) ~x:rx ~y:ry
          <> Jpeg2000.Image.plane_get full.Jpeg2000.Image.planes.(c) ~x:(x + rx)
               ~y:(y + ry)
        then matches := false
      done
    done
  done;
  Alcotest.(check bool) "matches the full decode's crop" true !matches;
  (* Bad windows are rejected. *)
  let rejected f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "empty window" true
    (rejected (fun () -> Jpeg2000.Decoder.decode_region ~x:0 ~y:0 ~w:0 ~h:5 data));
  Alcotest.(check bool) "out of bounds" true
    (rejected (fun () -> Jpeg2000.Decoder.decode_region ~x:90 ~y:0 ~w:10 ~h:5 data))

let test_rate_shaping () =
  let img = Jpeg2000.Image.smooth ~width:64 ~height:64 ~components:3 ~seed:19 in
  let data =
    Jpeg2000.Encoder.encode
      { Jpeg2000.Encoder.default_lossless with tile_w = 64; tile_h = 64 }
      img
  in
  let full = String.length data in
  (* Already-fitting budgets return the stream unchanged. *)
  Alcotest.(check string) "no-op above full size" data
    (Jpeg2000.Rate.shape ~max_bytes:(full + 100) data);
  (* Shaped streams respect the budget, decode, and degrade
     monotonically. *)
  let floor_bytes = Jpeg2000.Rate.minimum_bytes data in
  let psnr_at budget =
    let shaped = Jpeg2000.Rate.shape ~max_bytes:budget data in
    Alcotest.(check bool)
      (Printf.sprintf "within budget %d (got %d)" budget (String.length shaped))
      true
      (String.length shaped <= budget || String.length shaped = floor_bytes);
    Jpeg2000.Image.psnr img (Jpeg2000.Decoder.decode shaped)
  in
  let q1 = psnr_at (full / 8) in
  let q2 = psnr_at (full / 3) in
  let q3 = psnr_at (full * 9 / 10) in
  Alcotest.(check bool)
    (Printf.sprintf "quality grows with budget (%.1f < %.1f < %.1f)" q1 q2 q3)
    true
    (q1 < q2 && q2 <= q3);
  Alcotest.(check bool) "bad budget rejected" true
    (try ignore (Jpeg2000.Rate.shape ~max_bytes:0 data); false
     with Invalid_argument _ -> true)

let test_stagewise_equals_monolithic () =
  (* Composing the staged decoder functions by hand must equal the
     monolithic decode — the property the system models rely on. *)
  let img, data = sample_stream () in
  let stream = Jpeg2000.Decoder.parse data in
  let header = stream.Jpeg2000.Codestream.header in
  let tiles =
    List.map
      (fun tile ->
        let ed = Jpeg2000.Decoder.entropy_decode_tile header tile in
        let wd = Jpeg2000.Decoder.dequantise header ed in
        let wd = Jpeg2000.Decoder.inverse_wavelet header wd in
        Jpeg2000.Decoder.inverse_colour_and_shift header tile wd)
      stream.Jpeg2000.Codestream.tiles
  in
  let out =
    Jpeg2000.Tile.assemble ~width:40 ~height:24 ~components:3 tiles
  in
  Alcotest.(check bool) "stages compose to identity" true
    (Jpeg2000.Image.equal img out)

(* -- Stream (resumable parsing) -------------------------------------- *)

let stream_sample = lazy (snd (sample_stream ()))

(* Feed [data] split at the given (sorted, strictly interior) cut
   offsets; returns the machine. *)
let feed_partition data cuts =
  let s = Jpeg2000.Stream.create () in
  let n = String.length data in
  let rec go pos cuts =
    let next = match cuts with [] -> n | c :: _ -> c in
    ignore (Jpeg2000.Stream.feed s (String.sub data pos (next - pos)));
    match cuts with [] -> () | _ :: rest -> go next rest
  in
  go 0 cuts;
  s

(* The tentpole invariant: any partition of any byte string drives the
   machine to Codestream.parse_result of the concatenation — on clean
   streams, truncated prefixes and bit-stomped variants alike. *)
let stream_chunk_invariance_qcheck =
  QCheck.Test.make ~name:"Stream.feed is chunk-size invariant" ~count:120
    (QCheck.make
       QCheck.Gen.(
         let* variant = int_range 0 2 in
         let* a = int_range 0 99_999 in
         let* b = int_range 0 255 in
         let* cuts = list_size (int_range 0 16) (int_range 1 99_999) in
         return (variant, a, b, cuts)))
    (fun (variant, a, b, cuts) ->
      let base = Lazy.force stream_sample in
      let n = String.length base in
      let data =
        match variant with
        | 0 -> base
        | 1 -> String.sub base 0 (a mod (n + 1))
        | _ ->
          let stomped = Bytes.of_string base in
          Bytes.set stomped (a mod n) (Char.chr b);
          Bytes.to_string stomped
      in
      let m = String.length data in
      let cuts =
        List.sort_uniq Int.compare
          (List.filter_map
             (fun c ->
               let c = c mod (m + 1) in
               if c > 0 && c < m then Some c else None)
             cuts)
      in
      let s = feed_partition data cuts in
      Jpeg2000.Stream.parse_result s = Jpeg2000.Codestream.parse_result data)

let test_stream_one_byte_chunks () =
  let data = Lazy.force stream_sample in
  let s = Jpeg2000.Stream.create () in
  String.iter (fun c -> ignore (Jpeg2000.Stream.feed s (String.make 1 c))) data;
  Alcotest.(check bool) "done" true
    (Jpeg2000.Stream.status s = Jpeg2000.Stream.Done);
  Alcotest.(check string) "received" data (Jpeg2000.Stream.received s);
  Alcotest.(check int) "bytes_fed" (String.length data)
    (Jpeg2000.Stream.bytes_fed s);
  (match
     (Jpeg2000.Stream.parse_result s, Jpeg2000.Codestream.parse_result data)
   with
  | Ok a, Ok b ->
    Alcotest.(check bool) "equal parse" true (a = b);
    Alcotest.(check string) "emit round trip" data (Jpeg2000.Codestream.emit a)
  | _ -> Alcotest.fail "parse failed");
  Alcotest.(check bool) "feed after finish raises" true
    (try
       ignore (Jpeg2000.Stream.feed s "x");
       false
     with Invalid_argument _ -> true)

(* Unit boundaries of the sample stream, via the incremental readers
   themselves: end of preamble, then end of each tile segment. *)
let unit_boundaries data =
  match Jpeg2000.Codestream.read_preamble data ~pos:0 with
  | Jpeg2000.Codestream.Unit_ready ((header, ntiles), pos) ->
    let rec go acc pos n =
      if n = 0 then List.rev acc
      else
        match Jpeg2000.Codestream.read_tile ~header data ~pos with
        | Jpeg2000.Codestream.Unit_ready (_, pos') ->
          go (pos' :: acc) pos' (n - 1)
        | _ -> List.rev acc
    in
    (pos, go [] pos ntiles)
  | _ -> Alcotest.fail "sample preamble did not parse"

let test_stream_truncation_at_boundaries () =
  let data = Lazy.force stream_sample in
  let preamble_end, tile_ends = unit_boundaries data in
  Alcotest.(check int) "six tile units" 6 (List.length tile_ends);
  (* Truncating at, just before and just after every marker boundary
     must agree with the batch parser, Truncated offsets included. *)
  List.iter
    (fun b ->
      List.iter
        (fun cut ->
          if cut >= 0 && cut <= String.length data then begin
            let prefix = String.sub data 0 cut in
            let s = Jpeg2000.Stream.create () in
            ignore (Jpeg2000.Stream.feed s prefix);
            if
              Jpeg2000.Stream.parse_result s
              <> Jpeg2000.Codestream.parse_result prefix
            then Alcotest.failf "cut %d: stream disagrees with parse_result" cut
          end)
        [ b - 1; b; b + 1 ])
    (0 :: 4 :: preamble_end :: tile_ends);
  (* At an exact boundary the machine has landed exactly the units
     before the cut. *)
  let s = Jpeg2000.Stream.create () in
  ignore (Jpeg2000.Stream.feed s (String.sub data 0 preamble_end));
  Alcotest.(check bool) "header at preamble" true
    (Jpeg2000.Stream.header s <> None);
  Alcotest.(check (option int)) "tile count" (Some 6)
    (Jpeg2000.Stream.tile_count s);
  Alcotest.(check int) "no tiles yet" 0 (Jpeg2000.Stream.tiles_ready s);
  List.iteri
    (fun i e ->
      let s = Jpeg2000.Stream.create () in
      ignore (Jpeg2000.Stream.feed s (String.sub data 0 e));
      Alcotest.(check int)
        (Printf.sprintf "tiles ready at unit %d" i)
        (i + 1) (Jpeg2000.Stream.tiles_ready s))
    tile_ends

let test_parse_wrapper_routes_result () =
  (* The legacy wrapper must report exactly what parse_result says —
     one source of truth for the error taxonomy. *)
  let data = Lazy.force stream_sample in
  let expect s =
    match Jpeg2000.Codestream.parse_result s with
    | Ok _ -> Alcotest.fail "expected a parse error"
    | Error e -> (
      match Jpeg2000.Codestream.parse s with
      | _ -> Alcotest.fail "parse did not raise"
      | exception Failure msg ->
        Alcotest.(check string) "wrapper message"
          ("Codestream.parse: " ^ Jpeg2000.Codestream.error_message e)
          msg)
  in
  expect "XXXXjunk";
  expect (String.sub data 0 (String.length data / 2));
  expect (data ^ "!")

(* -- flat coefficient planes ----------------------------------------

   The flat decode path (off-heap planes, scratch T1, in-place IDWT)
   is the only whole-tile pipeline since the boxed cross-check path
   retired. Golden FNV-1a-64 digests recorded while both paths still
   agreed pin its output on every entry point; set PRINT_GOLDENS=1 to
   regenerate the table after an intentional output change. *)

let test_plane_basics () =
  let p = Jpeg2000.Plane.create ~w:5 ~h:3 in
  Alcotest.(check int) "width" 5 (Jpeg2000.Plane.width p);
  Alcotest.(check int) "height" 3 (Jpeg2000.Plane.height p);
  Alcotest.(check int) "zero initialised" 0 (Jpeg2000.Plane.get p ~x:4 ~y:2);
  Jpeg2000.Plane.set p ~x:3 ~y:1 (-42);
  Alcotest.(check int) "set/get" (-42) (Jpeg2000.Plane.get p ~x:3 ~y:1);
  Jpeg2000.Plane.blit_block p ~x0:1 ~y0:1 ~w:2 ~h:2 [| 1; 2; 3; 4 |];
  Alcotest.(check int) "blit top-left" 1 (Jpeg2000.Plane.get p ~x:1 ~y:1);
  Alcotest.(check int) "blit bottom-right" 4 (Jpeg2000.Plane.get p ~x:2 ~y:2);
  Alcotest.(check (array int)) "to_array round-trips"
    (Jpeg2000.Plane.to_array p)
    Jpeg2000.Plane.(to_array (of_array ~w:5 ~h:3 (to_array p)));
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "get out of bounds" true
    (raises (fun () -> ignore (Jpeg2000.Plane.get p ~x:5 ~y:0)));
  Alcotest.(check bool) "blit out of bounds" true
    (raises (fun () ->
         Jpeg2000.Plane.blit_block p ~x0:4 ~y0:2 ~w:2 ~h:2 [| 0; 0; 0; 0 |]));
  Alcotest.(check bool) "empty plane" true
    (raises (fun () -> ignore (Jpeg2000.Plane.create ~w:0 ~h:1)))

let flat_configs =
  [
    ("lossless", { Jpeg2000.Encoder.default_lossless with tile_w = 16; tile_h = 16 });
    ("lossy", { Jpeg2000.Encoder.default_lossy with tile_w = 16; tile_h = 16 });
  ]

(* FNV-1a-64 over image geometry and samples — the same digest
   discipline the serve layer pins its reports with. *)
let fnv_prime = 0x100000001b3L
let fnv_int h v = Int64.mul (Int64.logxor h (Int64.of_int v)) fnv_prime

let image_digest h (img : Jpeg2000.Image.t) =
  let h = ref (fnv_int h (Jpeg2000.Image.width img)) in
  h := fnv_int !h (Jpeg2000.Image.height img);
  h := fnv_int !h (Array.length img.Jpeg2000.Image.planes);
  Array.iter
    (fun (p : Jpeg2000.Image.plane) ->
      Array.iter (fun v -> h := fnv_int !h v) p.Jpeg2000.Image.data)
    img.Jpeg2000.Image.planes;
  !h

(* One digest per seed covering every decode entry point (full,
   reduced, progressive, region, robust over a clean, a truncated and
   a corrupted stream) in both modes. A pure function of the seed, so
   the recorded table below is a regression oracle for the whole flat
   pipeline, concealment included. *)
let flat_golden_digest seed =
  let width = 33 + (7 * seed)
  and height = 24 + (5 * seed)
  and components = 1 + (seed mod 3) in
  let img =
    if seed mod 2 = 0 then
      Jpeg2000.Image.smooth ~width ~height ~components ~seed
    else Jpeg2000.Image.noise ~width ~height ~components ~seed
  in
  List.fold_left
    (fun h (_, config) ->
      let data = Jpeg2000.Encoder.encode config img in
      let h = image_digest h (Jpeg2000.Decoder.decode data) in
      let h =
        image_digest h (Jpeg2000.Decoder.decode_reduced ~discard_levels:1 data)
      in
      let h =
        image_digest h (Jpeg2000.Decoder.decode_progressive ~max_passes:2 data)
      in
      let h =
        image_digest h
          (Jpeg2000.Decoder.decode_region ~x:5 ~y:9 ~w:20 ~h:14 data)
      in
      let robust h data =
        match Jpeg2000.Decoder.decode_robust data with
        | Ok (image, r) ->
          let h = image_digest h image in
          let h = fnv_int h r.Jpeg2000.Decoder.concealed_blocks in
          let h = fnv_int h r.Jpeg2000.Decoder.concealed_tiles in
          fnv_int h r.Jpeg2000.Decoder.total_blocks
        | Error _ -> fnv_int h (-1)
      in
      let h = robust h data in
      let h = robust h (String.sub data 0 (String.length data * 3 / 4)) in
      let corrupt = Bytes.of_string data in
      for i = 0 to 8 do
        Bytes.set corrupt
          ((String.length data / 2) + (i * 13))
          (Char.chr ((i * 41) land 0xff))
      done;
      robust h (Bytes.to_string corrupt))
    0xcbf29ce484222325L flat_configs

(* Recorded with PRINT_GOLDENS=1 at the moment the boxed cross-check
   path retired (the two pipelines were verified bit-identical by the
   qcheck suite through the previous release). *)
let flat_golden_digests =
  [| "73ffda2f37828bda"; "e2d5818b0b350166";
     "696c4726cf0e869c"; "e249ba767dac0868" |]

let () =
  if Sys.getenv_opt "PRINT_GOLDENS" <> None then begin
    Array.iteri
      (fun seed _ ->
        Printf.printf "golden %d: %016Lx\n%!" seed (flat_golden_digest seed))
      flat_golden_digests;
    exit 0
  end

let flat_golden_qcheck =
  QCheck.Test.make ~name:"flat decode matches recorded goldens" ~count:4
    QCheck.(int_range 0 (Array.length flat_golden_digests - 1))
    (fun seed ->
      Printf.sprintf "%016Lx" (flat_golden_digest seed)
      = flat_golden_digests.(seed))

let test_flat_identity_across_pools () =
  (* The flat planes are shared mutable state across pool domains;
     disjoint-rectangle blits must keep any schedule bit-identical to
     the sequential decode. *)
  let img = Jpeg2000.Image.smooth ~width:40 ~height:24 ~components:3 ~seed:7 in
  List.iter
    (fun (name, config) ->
      let data = Jpeg2000.Encoder.encode config img in
      let reference = Jpeg2000.Decoder.decode data in
      List.iter
        (fun jobs ->
          Par.Pool.with_jobs jobs (fun pool ->
              Alcotest.(check bool)
                (Printf.sprintf "%s jobs=%d" name jobs)
                true
                (Jpeg2000.Image.equal reference
                   (Jpeg2000.Decoder.decode ~pool data))))
        [ 1; 2; 4 ])
    flat_configs

let test_staged_protocols_agree () =
  (* The in-place staged protocol (staged_run/finish_staged_ok), the
     compat protocol (staged_job/finish_staged) and the monolithic
     decode_tile must agree tile for tile. *)
  let img = Jpeg2000.Image.smooth ~width:40 ~height:24 ~components:3 ~seed:29 in
  List.iter
    (fun (name, config) ->
      let data = Jpeg2000.Encoder.encode config img in
      let stream = Jpeg2000.Codestream.parse data in
      let header = stream.Jpeg2000.Codestream.header in
      List.iter
        (fun tile ->
          let reference = Jpeg2000.Decoder.decode_tile header tile in
          let st_old = Jpeg2000.Decoder.stage_tile header tile in
          let n = Jpeg2000.Decoder.staged_jobs st_old in
          let t_old, c_old =
            Jpeg2000.Decoder.finish_staged st_old
              (Array.init n (Jpeg2000.Decoder.staged_job st_old))
          in
          let st_new = Jpeg2000.Decoder.stage_tile header tile in
          let t_new, c_new =
            Jpeg2000.Decoder.finish_staged_ok st_new
              (Array.init n (Jpeg2000.Decoder.staged_run st_new))
          in
          Alcotest.(check int) (name ^ " compat concealed") 0 c_old;
          Alcotest.(check int) (name ^ " in-place concealed") 0 c_new;
          Alcotest.(check bool) (name ^ " compat tile") true (t_old = reference);
          Alcotest.(check bool) (name ^ " in-place tile") true
            (t_new = reference))
        stream.Jpeg2000.Codestream.tiles)
    flat_configs

let () =
  Alcotest.run "jpeg2000"
    [
      ( "image",
        [
          Alcotest.test_case "basics" `Quick test_image_basics;
          Alcotest.test_case "metrics" `Quick test_image_metrics;
          Alcotest.test_case "generators in range" `Quick test_generators_in_range;
          Alcotest.test_case "generators deterministic" `Quick
            test_generators_deterministic;
          Alcotest.test_case "pnm roundtrip" `Quick test_pnm_roundtrip;
          Alcotest.test_case "pnm rejects garbage" `Quick test_pnm_rejects_garbage;
          Alcotest.test_case "blit_row bounds" `Quick test_blit_row_bounds;
        ] );
      ( "tile",
        [
          Alcotest.test_case "split/assemble" `Quick test_tile_split_assemble;
          Alcotest.test_case "border sizes" `Quick test_tile_border_sizes;
          qc tile_roundtrip_qcheck;
        ] );
      ( "colour",
        [
          Alcotest.test_case "dc shift" `Quick test_dc_shift;
          Alcotest.test_case "dc shift clamps" `Quick test_dc_shift_clamps;
          qc rct_roundtrip_qcheck;
          qc ict_roundtrip_qcheck;
        ] );
      ( "subband",
        [
          Alcotest.test_case "decompose 32x32x2" `Quick test_subband_decompose;
          qc subband_cover_qcheck;
        ] );
      ( "dwt",
        [
          Alcotest.test_case "5/3 constant line" `Quick test_dwt53_known_line;
          Alcotest.test_case "5/3 singleton" `Quick test_dwt53_singleton;
          qc dwt53_1d_roundtrip_qcheck;
          qc dwt53_2d_roundtrip_qcheck;
          Alcotest.test_case "9/7 constant line" `Quick test_dwt97_constant_line;
          qc dwt97_roundtrip_qcheck;
        ] );
      ( "quant",
        [
          Alcotest.test_case "step ordering" `Quick test_quant_steps_ordered;
          Alcotest.test_case "zero stays zero" `Quick test_quant_zero_stays_zero;
          qc quant_error_bound_qcheck;
        ] );
      ( "mq",
        [
          Alcotest.test_case "empty flush" `Quick test_mq_empty_flush;
          Alcotest.test_case "no markers emitted" `Quick test_mq_stuffing_pattern;
          Alcotest.test_case "adaptive compression" `Quick
            test_mq_compression_on_skewed_input;
          Alcotest.test_case "context isolation" `Quick test_mq_context_isolation;
          qc mq_roundtrip_qcheck;
          qc mq_skewed_roundtrip_qcheck;
        ] );
      ( "t1",
        [
          Alcotest.test_case "num_planes" `Quick test_t1_num_planes;
          Alcotest.test_case "zero block" `Quick test_t1_zero_block;
          Alcotest.test_case "single coefficients" `Quick
            test_t1_single_coefficient;
          Alcotest.test_case "compresses structure" `Quick
            test_t1_compresses_structure;
          qc t1_roundtrip_all_bands_qcheck;
          qc t1_sparse_roundtrip_qcheck;
          qc t1_lut_equals_reference_qcheck;
        ] );
      ( "misc",
        [
          Alcotest.test_case "orientation codes" `Quick test_orientation_codes;
          Alcotest.test_case "subband gains" `Quick test_subband_gains;
          Alcotest.test_case "image file io" `Quick test_image_file_io;
          Alcotest.test_case "encoder config checks" `Quick
            test_encoder_rejects_bad_config;
        ] );
      ( "codestream",
        [
          Alcotest.test_case "roundtrip" `Quick test_codestream_roundtrip;
          Alcotest.test_case "rejects corruption" `Quick
            test_codestream_rejects_corruption;
          Alcotest.test_case "block grid" `Quick test_block_grid;
          Alcotest.test_case "code-block size invariance" `Quick
            test_code_block_size_invariance;
          Alcotest.test_case "small blocks compress worse" `Quick
            test_smaller_blocks_cost_more_bytes;
        ] );
      ( "stream",
        [
          qc stream_chunk_invariance_qcheck;
          Alcotest.test_case "one-byte chunks" `Quick test_stream_one_byte_chunks;
          Alcotest.test_case "truncation at marker boundaries" `Quick
            test_stream_truncation_at_boundaries;
          Alcotest.test_case "parse wrapper routes parse_result" `Quick
            test_parse_wrapper_routes_result;
        ] );
      ( "codec",
        [
          Alcotest.test_case "lossless colour" `Quick test_lossless_roundtrip_colour;
          Alcotest.test_case "lossless grey" `Quick test_lossless_roundtrip_grey;
          Alcotest.test_case "lossy quality" `Quick test_lossy_quality;
          Alcotest.test_case "rate/quality tradeoff" `Quick
            test_lossy_rate_quality_tradeoff;
          Alcotest.test_case "lossless compresses" `Quick
            test_lossless_compresses_smooth_content;
          Alcotest.test_case "stages compose" `Quick test_stagewise_equals_monolithic;
          Alcotest.test_case "reduced-resolution decode" `Quick
            test_reduced_resolution_decode;
          Alcotest.test_case "reduced lossy brightness" `Quick
            test_reduced_resolution_lossy_brightness;
          Alcotest.test_case "reduced decode argument checks" `Quick
            test_reduced_resolution_rejects_bad_args;
          Alcotest.test_case "corruption does not hang" `Quick
            test_decoder_survives_payload_corruption;
          qc t1_scalable_roundtrip_qcheck;
          Alcotest.test_case "pass-prefix error monotone" `Quick
            test_t1_pass_prefix_monotone;
          Alcotest.test_case "progressive decode quality" `Quick
            test_progressive_decode_quality;
          Alcotest.test_case "region decode" `Quick test_region_decode;
          Alcotest.test_case "rate shaping" `Quick test_rate_shaping;
          qc lossless_roundtrip_qcheck;
        ] );
      ( "flat",
        [
          Alcotest.test_case "plane basics" `Quick test_plane_basics;
          qc flat_golden_qcheck;
          Alcotest.test_case "identity across pools" `Quick
            test_flat_identity_across_pools;
          Alcotest.test_case "staged protocols agree" `Quick
            test_staged_protocols_agree;
        ] );
    ]
