(* Tests for the JPEG 2000 codec substrate. *)

let qc = QCheck_alcotest.to_alcotest

let parse_ok data =
  match Jpeg2000.Codestream.parse_result data with
  | Ok stream -> stream
  | Error e -> Alcotest.failf "parse: %s" (Jpeg2000.Codestream.error_message e)

(* Row-major copy of a coefficient plane. *)
let plane_ints (p : Jpeg2000.Plane.t) =
  Array.init
    (Jpeg2000.Plane.width p * Jpeg2000.Plane.height p)
    (Bigarray.Array1.get p.Jpeg2000.Plane.data)

(* A float plane holding a copy of [values], row-major. *)
let float_plane ~w ~h values =
  let p = Jpeg2000.Plane.create_floats ~w ~h in
  Array.iteri (Bigarray.Array1.set p.Jpeg2000.Plane.data) values;
  p

let plane_floats (p : Jpeg2000.Plane.floats) =
  Array.init
    (Jpeg2000.Plane.width p * Jpeg2000.Plane.height p)
    (Bigarray.Array1.get p.Jpeg2000.Plane.data)

let same_bits a b = Int64.bits_of_float a = Int64.bits_of_float b

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
  for y = 0 to 15 do
    Jpeg2000.Image.blit_row ~src:a.Jpeg2000.Image.planes.(0) ~src_x:0 ~src_y:y
      ~dst:b.Jpeg2000.Image.planes.(0) ~dst_x:0 ~dst_y:y ~len:16
  done;
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
          (Jpeg2000.Image.plane_to_array p))
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
  for y = 0 to 2 do
    for x = 0 to 5 do
      Jpeg2000.Image.plane_set src ~x ~y ((y * 6) + x + 1)
    done
  done;
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
    (Array.for_all (( = ) 0) (Jpeg2000.Image.plane_to_array dst));
  blit ~src_x:2 ~src_y:1 ~dst_x:1 ~dst_y:2 3 ();
  let expected = Array.make (5 * 4) 0 in
  Array.blit
    (Jpeg2000.Image.plane_to_array src)
    ((1 * 6) + 2) expected ((2 * 5) + 1) 3;
  Alcotest.(check (array int)) "exactly len samples copied" expected
    (Jpeg2000.Image.plane_to_array dst);
  blit ~src_x:6 ~dst_x:5 ~src_y:2 ~dst_y:3 0 ();
  Alcotest.(check (array int)) "len 0 at the far edge is a no-op" expected
    (Jpeg2000.Image.plane_to_array dst)

(* The 16-bit store holds 0 .. 0xFFFF; anything else must be refused,
   not wrapped to its low bits. *)
let test_plane_set_range () =
  let p = Jpeg2000.Image.create_plane ~width:3 ~height:2 in
  let rejects name f =
    Alcotest.(check bool) name true
      (try f (); false with Invalid_argument _ -> true)
  in
  rejects "-1" (fun () -> Jpeg2000.Image.plane_set p ~x:1 ~y:1 (-1));
  rejects "65536" (fun () -> Jpeg2000.Image.plane_set p ~x:1 ~y:1 65536);
  rejects "fill 65536" (fun () -> Jpeg2000.Image.fill_plane p 65536);
  rejects "x past the width" (fun () -> Jpeg2000.Image.plane_set p ~x:3 ~y:0 1);
  rejects "get y past the height" (fun () ->
      ignore (Jpeg2000.Image.plane_get p ~x:0 ~y:2));
  Alcotest.(check (array int)) "rejected writes change nothing"
    (Array.make 6 0) (Jpeg2000.Image.plane_to_array p);
  Jpeg2000.Image.plane_set p ~x:2 ~y:1 0xFFFF;
  Jpeg2000.Image.plane_set p ~x:0 ~y:0 0;
  Alcotest.(check int) "0xFFFF round-trips" 0xFFFF
    (Jpeg2000.Image.plane_get p ~x:2 ~y:1);
  Jpeg2000.Image.fill_plane p 0x8001;
  Alcotest.(check (array int)) "fill" (Array.make 6 0x8001)
    (Jpeg2000.Image.plane_to_array p)

(* Random images at every bit depth 1..16: values up to [max_sample]
   survive [plane_set]/[plane_get], [blit_row], a split/assemble round
   trip and [equal], and one changed sample breaks [equal]. *)
let sample_store_qcheck =
  QCheck.Test.make ~name:"16-bit sample store round-trips at every depth"
    ~count:120
    QCheck.(
      quad (int_range 1 16)
        (pair (int_range 1 40) (int_range 1 40))
        (pair (int_range 1 3) (int_range 1 17))
        small_nat)
    (fun (bit_depth, (width, height), (components, tile), seed) ->
      let img =
        Jpeg2000.Image.create ~width ~height ~components ~bit_depth ()
      in
      let top = Jpeg2000.Image.max_sample img in
      let state = ref (seed + 1) in
      let next () =
        state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
        (* a third at [top], a third at 0, the rest anywhere *)
        match !state mod 3 with 0 -> top | 1 -> 0 | _ -> !state mod (top + 1)
      in
      let values =
        Array.init components (fun _ ->
            Array.init (width * height) (fun _ -> next ()))
      in
      Array.iteri
        (fun c p ->
          Array.iteri
            (fun i v ->
              Jpeg2000.Image.plane_set p ~x:(i mod width) ~y:(i / width) v)
            values.(c))
        img.Jpeg2000.Image.planes;
      let read p =
        Array.init (width * height) (fun i ->
            Jpeg2000.Image.plane_get p ~x:(i mod width) ~y:(i / width))
      in
      let copy =
        Jpeg2000.Image.create ~width ~height ~components ~bit_depth ()
      in
      Array.iteri
        (fun c src ->
          for y = 0 to height - 1 do
            Jpeg2000.Image.blit_row ~src ~src_x:0 ~src_y:y
              ~dst:copy.Jpeg2000.Image.planes.(c) ~dst_x:0 ~dst_y:y ~len:width
          done)
        img.Jpeg2000.Image.planes;
      let tiles = Jpeg2000.Tile.split img ~tile_w:tile ~tile_h:tile in
      let back =
        Jpeg2000.Tile.assemble ~width ~height ~components ~bit_depth tiles
      in
      let broken =
        Jpeg2000.Tile.assemble ~width ~height ~components ~bit_depth tiles
      in
      let p0 = broken.Jpeg2000.Image.planes.(0) in
      Jpeg2000.Image.plane_set p0 ~x:0 ~y:0
        (if Jpeg2000.Image.plane_get p0 ~x:0 ~y:0 = 0 then 1 else 0);
      Array.for_all2
        (fun p v -> read p = v && Jpeg2000.Image.plane_to_array p = v)
        img.Jpeg2000.Image.planes values
      && Jpeg2000.Image.equal img copy
      && Jpeg2000.Image.equal img back
      && not (Jpeg2000.Image.equal img broken))

(* 8-bit PGM/PPM of random content: image -> bytes -> image is the
   identity, and so is bytes -> image -> bytes. *)
let pnm_random_qcheck =
  QCheck.Test.make ~name:"8-bit PNM round-trips a random image" ~count:60
    QCheck.(
      quad (int_range 1 40) (int_range 1 40) (oneofl [ 1; 3 ]) small_nat)
    (fun (width, height, components, seed) ->
      let img = Jpeg2000.Image.noise ~width ~height ~components ~seed in
      let pnm = Jpeg2000.Image.to_pnm img in
      let back = Jpeg2000.Image.of_pnm pnm in
      Jpeg2000.Image.equal img back && Jpeg2000.Image.to_pnm back = pnm)

(* The point of the 16-bit store: assembling served images allocates
   their 2-byte samples and little else (an [int array] store costs 8
   bytes a sample). Allocation is deterministic, so this pins the
   mechanism without a timing threshold. *)
let test_assemble_allocation () =
  let side = 256 and components = 3 in
  let img = Jpeg2000.Image.smooth ~width:side ~height:side ~components ~seed:4 in
  let tiles = Jpeg2000.Tile.split img ~tile_w:32 ~tile_h:32 in
  (* Start from an empty minor heap: words allocated before this point
     but counted only when that heap is next emptied would otherwise
     land in the measurement. *)
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let back = Jpeg2000.Tile.assemble ~width:side ~height:side ~components tiles in
  let bytes = Gc.allocated_bytes () -. before in
  let per_sample = bytes /. float_of_int (side * side * components) in
  Alcotest.(check bool) "assembled image equals the source" true
    (Jpeg2000.Image.equal img back);
  Alcotest.(check bool)
    (Printf.sprintf "%.2f bytes allocated per sample (at most 3)" per_sample)
    true (per_sample <= 3.0)

(* The lossy finish works in place on each tile's float planes: over
   every tile of a staged 256x256 lossy stream (the case-study
   configuration), the three stage calls after the entropy decode
   allocate on the OCaml heap little more than the 2 bytes per sample
   of the output planes themselves. *)
let test_lossy_finish_allocation () =
  let side = 256 in
  let data =
    Models.Workload.codestream ~width:side ~height:side ~seed:11
      Jpeg2000.Codestream.Lossy
  in
  let stream = parse_ok data in
  let header = stream.Jpeg2000.Codestream.header in
  let decoded =
    List.map
      (fun seg -> (seg, Jpeg2000.Decoder.entropy_decode_tile header seg))
      stream.Jpeg2000.Codestream.tiles
  in
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let tiles =
    List.map
      (fun (seg, ed) ->
        Jpeg2000.Decoder.dequantise header ed
        |> Jpeg2000.Decoder.inverse_wavelet header
        |> Jpeg2000.Decoder.inverse_colour_and_shift header seg)
      decoded
  in
  let bytes = Gc.allocated_bytes () -. before in
  let samples = side * side * header.Jpeg2000.Codestream.components in
  let per_sample = bytes /. float_of_int samples in
  let image =
    Jpeg2000.Tile.assemble ~width:side ~height:side
      ~components:header.Jpeg2000.Codestream.components
      ~bit_depth:header.Jpeg2000.Codestream.bit_depth tiles
  in
  Alcotest.(check bool) "finished tiles equal the decode" true
    (Jpeg2000.Image.equal image (Jpeg2000.Decoder.decode data));
  Alcotest.(check bool)
    (Printf.sprintf "%.2f bytes allocated per sample (at most 3)" per_sample)
    true (per_sample <= 3.0)

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

(* The fused lossy finish against its three-stage oracle:
   [ict_inverse] on copies, round to nearest, [dc_shift_inverse].
   A third of the samples are exact ties [k + 0.5] with zero chroma,
   so red and blue hit the tie themselves; magnitudes reach twice the
   sample range, past both clamp ends. *)
let colour_sample bit_depth =
  let range = 2.0 *. Float.pow 2.0 (float_of_int bit_depth) in
  QCheck.Gen.(
    oneof
      [
        map
          (fun k -> (float_of_int k +. 0.5, 0.0, 0.0))
          (int_range (-int_of_float range) (int_of_float range));
        triple (float_range (-.range) range) (float_range (-.range) range)
          (float_range (-.range) range);
        map
          (fun k -> (float_of_int k, 0.0, 0.0))
          (int_range (-int_of_float range) (int_of_float range));
      ])

(* The lossy finish's oracle after the colour transform: round to
   nearest with [Float.round], then [dc_shift_inverse]. *)
let round_shift_oracle ~bit_depth a =
  let ints = Array.map (fun v -> int_of_float (Float.round v)) a in
  Jpeg2000.Colour.dc_shift_inverse ~bit_depth ints;
  ints

let colour_fused_qcheck =
  QCheck.Test.make ~name:"fused ICT+round+shift equals the three-stage chain"
    ~count:300
    QCheck.(
      make
        Gen.(
          oneofl [ 1; 8; 12; 16 ] >>= fun bit_depth ->
          map
            (fun samples -> (bit_depth, samples))
            (list_size (int_range 1 64) (colour_sample bit_depth))))
    (fun (bit_depth, samples) ->
      let plane f = Array.of_list (List.map f samples) in
      let y = plane (fun (v, _, _) -> v)
      and cb = plane (fun (_, v, _) -> v)
      and cr = plane (fun (_, _, v) -> v) in
      let chain = round_shift_oracle ~bit_depth in
      let y', cb', cr' = (Array.copy y, Array.copy cb, Array.copy cr) in
      Jpeg2000.Colour.ict_inverse y' cb' cr';
      let out () =
        Jpeg2000.Image.create_plane ~width:(Array.length y) ~height:1
      in
      let r = out () and g = out () and b = out () and grey = out () in
      let coeffs a = float_plane ~w:(Array.length a) ~h:1 a in
      let yp = coeffs y in
      Jpeg2000.Colour.ict_inverse_shift ~bit_depth yp (coeffs cb) (coeffs cr)
        ~r ~g ~b;
      Jpeg2000.Colour.round_shift_inverse ~bit_depth yp ~into:grey;
      let ints = Jpeg2000.Image.plane_to_array in
      (ints r, ints g, ints b) = (chain y', chain cb', chain cr')
      && ints grey = chain y
      && Array.for_all2 same_bits (plane_floats yp) y)

(* The inline round-half-away-from-zero of the lossy finish on the
   values a rounding shortcut gets wrong: ties, the largest double
   below 0.5, one ulp either side of a tie, integral values from 2^52
   on, non-finite values, and samples that land one step inside and
   outside either clamp end. Same oracle chain as above, with zero
   chroma. *)
let test_colour_rounding_cases () =
  let ties =
    List.concat_map
      (fun k ->
        let t = float_of_int k +. 0.5 in
        [ t; Float.pred t; Float.succ t ])
      [ -1000; -129; -3; -2; -1; 0; 1; 2; 127; 128; 32767; 1 lsl 40 ]
  in
  let fixed =
    [ 0.5; -0.5; 1.5; -1.5; 2.5; -2.5; 0.49999999999999994;
      -0.49999999999999994; 0.0; -0.0; 0x1p52; -0x1p52; 0x1p52 +. 1.0;
      Float.pred 0x1p52; 0x1p53 +. 2.0; 1e300; -1e300; Float.infinity;
      Float.neg_infinity; Float.nan ]
  in
  List.iter
    (fun bit_depth ->
      let offset = Float.pow 2.0 (float_of_int (bit_depth - 1)) in
      let top = (2.0 *. offset) -. 1.0 in
      let clamp_ends =
        List.concat_map
          (fun edge ->
            let lo = -.offset +. edge and hi = top -. offset +. edge in
            [ lo -. 0.5; Float.pred (lo -. 0.5); Float.succ (lo -. 0.5);
              hi +. 0.5; Float.pred (hi +. 0.5); Float.succ (hi +. 0.5) ])
          [ -1.0; 0.0; 1.0 ]
      in
      let y = Array.of_list (ties @ fixed @ clamp_ends) in
      let n = Array.length y in
      let zeros () = Array.make n 0.0 in
      let chain = round_shift_oracle ~bit_depth in
      let y' = Array.copy y and cb' = zeros () and cr' = zeros () in
      Jpeg2000.Colour.ict_inverse y' cb' cr';
      let out () = Jpeg2000.Image.create_plane ~width:n ~height:1 in
      let r = out () and g = out () and b = out () and grey = out () in
      let yp = float_plane ~w:n ~h:1 y in
      Jpeg2000.Colour.ict_inverse_shift ~bit_depth yp
        (float_plane ~w:n ~h:1 (zeros ()))
        (float_plane ~w:n ~h:1 (zeros ()))
        ~r ~g ~b;
      Jpeg2000.Colour.round_shift_inverse ~bit_depth yp ~into:grey;
      let ints = Jpeg2000.Image.plane_to_array in
      let check name got want =
        Array.iteri
          (fun i v ->
            if v <> want.(i) then
              Alcotest.failf "bit depth %d, %s of %h: %d, oracle %d" bit_depth
                name y.(i) v want.(i))
          got
      in
      check "grey" (ints grey) (chain y);
      check "red" (ints r) (chain y');
      check "green" (ints g) (chain cb');
      check "blue" (ints b) (chain cr'))
    [ 1; 8; 12; 16 ]

(* The fused lossless finish against its oracle chain: [rct_inverse],
   then [dc_shift_inverse], on random coefficients wide enough to pass
   both clamp ends. *)
let colour_fused_lossless_qcheck =
  QCheck.Test.make ~name:"fused RCT+shift equals the two-stage chain"
    ~count:300
    QCheck.(
      make
        Gen.(
          oneofl [ 1; 8; 12; 16 ] >>= fun bit_depth ->
          let range = 1 lsl (bit_depth + 1) in
          map
            (fun samples -> (bit_depth, samples))
            (list_size (int_range 1 64)
               (triple (int_range (-range) range) (int_range (-range) range)
                  (int_range (-range) range)))))
    (fun (bit_depth, samples) ->
      let n = List.length samples in
      let column f = Array.of_list (List.map f samples) in
      let y = column (fun (v, _, _) -> v)
      and cb = column (fun (_, v, _) -> v)
      and cr = column (fun (_, _, v) -> v) in
      let coeffs a = Jpeg2000.Plane.of_array ~w:n ~h:1 a in
      let out () = Jpeg2000.Image.create_plane ~width:n ~height:1 in
      let r = out () and g = out () and b = out () and grey = out () in
      Jpeg2000.Colour.rct_inverse_shift ~bit_depth (coeffs y) (coeffs cb)
        (coeffs cr) ~r ~g ~b;
      Jpeg2000.Colour.shift_inverse ~bit_depth (coeffs y) ~into:grey;
      let y', cb', cr' = (Array.copy y, Array.copy cb, Array.copy cr) in
      Jpeg2000.Colour.rct_inverse y' cb' cr';
      let shifted a =
        let a = Array.copy a in
        Jpeg2000.Colour.dc_shift_inverse ~bit_depth a;
        a
      in
      let ints = Jpeg2000.Image.plane_to_array in
      (ints r, ints g, ints b) = (shifted y', shifted cb', shifted cr')
      && ints grey = shifted y)

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
      let orig = Array.init (w * h) (fun i -> ((i * 97) mod 511) - 255) in
      let plane = Jpeg2000.Plane.of_array ~w ~h orig in
      Jpeg2000.Dwt53.forward_plane plane ~levels;
      Jpeg2000.Dwt53.inverse_plane plane ~levels;
      plane_ints plane = orig)

(* The in-place flat inverse against the boxed reference, on random
   coefficients at every size (odd, even, one-sample dimensions) and
   level count. *)
let dwt53_flat_equals_boxed_qcheck =
  QCheck.Test.make ~name:"5/3 flat inverse equals the boxed inverse" ~count:150
    QCheck.(quad (int_range 1 40) (int_range 1 40) (int_range 0 5) small_nat)
    (fun (w, h, levels, seed) ->
      let state = ref (seed + 3) in
      let next () =
        state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
        !state
      in
      let coeffs = Array.init (w * h) (fun _ -> (next () mod 2001) - 1000) in
      let boxed = Jpeg2000.Plane.of_array ~w ~h coeffs in
      Jpeg2000.Dwt53.inverse_plane boxed ~levels;
      let flat = Jpeg2000.Plane.of_array ~w ~h coeffs in
      Jpeg2000.Dwt53.inverse_flat flat ~levels;
      plane_ints flat = plane_ints boxed)

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

(* FNV-1a over the IEEE bits of a 9/7 forward + inverse over a fixed
   pseudo-random 37x29 matrix (three levels, both inverse entry
   points: the reference [inverse] and the decoder's in-place
   [inverse_flat]) and the 1-D transforms on odd and even lengths.
   The lifting must keep its exact operation order: a reassociated
   step still round-trips within 1e-9 but changes these bits. *)
let dwt97_bits_digest () =
  let h = ref 0xcbf29ce484222325L in
  let mix v =
    h := Int64.mul (Int64.logxor !h (Int64.bits_of_float v)) 0x100000001b3L
  in
  let state = ref 7 in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    float_of_int (!state mod 2001 - 1000) /. 7.0
  in
  let w = 37 and ht = 29 in
  let m = Jpeg2000.Dwt97.matrix_create ~w ~h:ht in
  Array.iteri (fun i _ -> m.Jpeg2000.Dwt97.values.(i) <- next ()) m.Jpeg2000.Dwt97.values;
  Jpeg2000.Dwt97.forward m ~levels:3;
  Array.iter mix m.Jpeg2000.Dwt97.values;
  let flat = float_plane ~w ~h:ht m.Jpeg2000.Dwt97.values in
  Jpeg2000.Dwt97.inverse m ~levels:3;
  Array.iter mix m.Jpeg2000.Dwt97.values;
  Jpeg2000.Dwt97.inverse_flat flat ~levels:3;
  Array.iter mix (plane_floats flat);
  List.iter
    (fun n ->
      let line = Array.init n (fun _ -> next ()) in
      let f = Jpeg2000.Dwt97.forward_1d line in
      Array.iter mix f;
      Array.iter mix (Jpeg2000.Dwt97.inverse_1d f))
    [ 2; 3; 8; 13 ];
  !h

let test_dwt97_bits_golden () =
  Alcotest.(check string) "digest" "bbe3690196eaf9ba"
    (Printf.sprintf "%016Lx" (dwt97_bits_digest ()))

(* The in-place inverse against the reference on every shape up to
   12x12 at 0-4 levels, bit for bit. Its column pass lifts whole rows
   and has its own edge rows (h = 1 and h = 2, the first row, the last
   even or odd row); random streams reach them only by chance. *)
let test_dwt97_flat_small_shapes () =
  let state = ref 97 in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    float_of_int ((!state mod 20001) - 10000) /. 13.0
  in
  for w = 1 to 12 do
    for h = 1 to 12 do
      for levels = 0 to 4 do
        let values = Array.init (w * h) (fun _ -> next ()) in
        let flat = float_plane ~w ~h values in
        Jpeg2000.Dwt97.inverse { Jpeg2000.Dwt97.mw = w; mh = h; values } ~levels;
        Jpeg2000.Dwt97.inverse_flat flat ~levels;
        Array.iteri
          (fun i v ->
            if not (same_bits v values.(i)) then
              Alcotest.failf "%dx%d, %d levels, sample %d: %h, reference %h" w h
                levels i v values.(i))
          (plane_floats flat)
      done
    done
  done

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

(* IQ of a band rectangle in place on a float plane against
   [Quant.dequantise] of the int coefficients, bit for bit; cells
   outside the band keep their values. Coefficients are 0, +-1, small,
   or up to +-2^60, where [float_of_int] rounds. *)
let quant_band_qcheck =
  QCheck.Test.make ~name:"dequantise_band equals Quant.dequantise" ~count:200
    QCheck.(
      quad
        (pair (int_range 1 24) (int_range 1 24))
        (pair small_nat small_nat)
        (float_range 0.01 40.0) small_nat)
    (fun ((pw, ph), (bx, by), step, seed) ->
      let state = ref (seed + 5) in
      let next () =
        state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
        !state
      in
      let x0 = bx mod pw and y0 = by mod ph in
      let w = 1 + (next () mod (pw - x0)) and h = 1 + (next () mod (ph - y0)) in
      let sign m = if next () land 1 = 0 then m else -m in
      let coeffs =
        Array.init (pw * ph) (fun _ ->
            match next () mod 4 with
            | 0 -> 0
            | 1 -> sign 1
            | 2 -> (next () mod 601) - 300
            | _ -> sign (1 + (((next () lsl 30) lor next ()) mod (1 lsl 60))))
      in
      let before = Array.map float_of_int coeffs in
      let plane = float_plane ~w:pw ~h:ph before in
      let band =
        { Jpeg2000.Subband.level = 1; orientation = Jpeg2000.Subband.HH; x0; y0; w; h }
      in
      Jpeg2000.Quant.dequantise_band ~step plane band;
      let inside =
        Array.init (w * h) (fun i ->
            coeffs.(((y0 + (i / w)) * pw) + x0 + (i mod w)))
      in
      let expected = Jpeg2000.Quant.dequantise ~step inside in
      let after = plane_floats plane in
      let ok = ref true in
      for y = 0 to ph - 1 do
        for x = 0 to pw - 1 do
          let want =
            if x >= x0 && x < x0 + w && y >= y0 && y < y0 + h then
              expected.(((y - y0) * w) + (x - x0))
            else before.((y * pw) + x)
          in
          if not (same_bits after.((y * pw) + x) want) then ok := false
        done
      done;
      !ok)

let test_quant_band_bounds () =
  let plane = Jpeg2000.Plane.create_floats ~w:8 ~h:6 in
  let band x0 y0 w h =
    { Jpeg2000.Subband.level = 1; orientation = Jpeg2000.Subband.LH; x0; y0; w; h }
  in
  List.iter
    (fun (name, b) ->
      Alcotest.check_raises name
        (Invalid_argument "Quant.dequantise_band: band outside the plane")
        (fun () -> Jpeg2000.Quant.dequantise_band ~step:1.0 plane b))
    [
      ("left", band (-1) 0 2 2);
      ("top", band 0 (-1) 2 2);
      ("right", band 7 0 2 2);
      ("bottom", band 0 5 2 2);
      ("negative width", band 0 0 (-1) 2);
      ("negative height", band 0 0 2 (-1));
    ]

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
  let contexts = [| 0 |] in
  let enc = Jpeg2000.Mq.encoder () in
  for i = 0 to 4000 do
    Jpeg2000.Mq.encode enc contexts 0 (if i mod 5 = 0 then 1 else 0)
  done;
  let data = Jpeg2000.Mq.flush enc in
  for i = 0 to String.length data - 2 do
    if Char.code data.[i] = 0xFF && Char.code data.[i + 1] > 0x8F then
      Alcotest.failf "marker emitted at %d" i
  done

(* ISO/IEC 15444-1 Table C.2, transcribed column by column
   independently of mq.ml: the flat arrays the coder indexes must
   reproduce it for every state. *)
let test_mq_table_c2 () =
  let qe =
    [| 0x5601; 0x3401; 0x1801; 0x0AC1; 0x0521; 0x0221; 0x5601; 0x5401;
       0x4801; 0x3801; 0x3001; 0x2401; 0x1C01; 0x1601; 0x5601; 0x5401;
       0x5101; 0x4801; 0x3801; 0x3401; 0x3001; 0x2801; 0x2401; 0x2201;
       0x1C01; 0x1801; 0x1601; 0x1401; 0x1201; 0x1101; 0x0AC1; 0x09C1;
       0x08A1; 0x0521; 0x0441; 0x02A1; 0x0221; 0x0141; 0x0111; 0x0085;
       0x0049; 0x0025; 0x0015; 0x0009; 0x0005; 0x0001; 0x5601 |]
  in
  let nmps =
    [| 1; 2; 3; 4; 5; 38; 7; 8; 9; 10; 11; 12; 13; 29; 15; 16; 17; 18; 19;
       20; 21; 22; 23; 24; 25; 26; 27; 28; 29; 30; 31; 32; 33; 34; 35; 36;
       37; 38; 39; 40; 41; 42; 43; 44; 45; 45; 46 |]
  in
  let nlps =
    [| 1; 6; 9; 12; 29; 33; 6; 14; 14; 14; 17; 18; 20; 21; 14; 14; 15; 16;
       17; 18; 19; 19; 20; 21; 22; 23; 24; 25; 26; 27; 28; 29; 30; 31; 32;
       33; 34; 35; 36; 37; 38; 39; 40; 41; 42; 43; 46 |]
  in
  let switches = [ 0; 6; 14 ] in
  for i = 0 to 46 do
    let sw = if List.mem i switches then 1 else 0 in
    Alcotest.(check (list int))
      (Printf.sprintf "state %d" i)
      [ qe.(i); nmps.(i); nlps.(i); sw ]
      (let a, b, c, d = Jpeg2000.Mq.state i in
       [ a; b; c; d ])
  done;
  List.iter
    (fun i ->
      Alcotest.check_raises (Printf.sprintf "state %d" i)
        (Invalid_argument "Mq.state: index") (fun () ->
          ignore (Jpeg2000.Mq.state i)))
    [ -1; 47 ]

(* The packed-state arrays against Table C.2 transcribed once more,
   row by row as the standard prints it: for each of the 94 (index,
   MPS) pairs, Qe, the state after an MPS (NMPS, same MPS) and after an
   LPS (NLPS, the MPS flipped where SWITCH is 1: states 0, 6 and 14). *)
let test_mq_packed_states () =
  let rows =
    [ (0x5601, 1, 1, 1); (0x3401, 2, 6, 0); (0x1801, 3, 9, 0);
      (0x0AC1, 4, 12, 0); (0x0521, 5, 29, 0); (0x0221, 38, 33, 0);
      (0x5601, 7, 6, 1); (0x5401, 8, 14, 0); (0x4801, 9, 14, 0);
      (0x3801, 10, 14, 0); (0x3001, 11, 17, 0); (0x2401, 12, 18, 0);
      (0x1C01, 13, 20, 0); (0x1601, 29, 21, 0); (0x5601, 15, 14, 1);
      (0x5401, 16, 14, 0); (0x5101, 17, 15, 0); (0x4801, 18, 16, 0);
      (0x3801, 19, 17, 0); (0x3401, 20, 18, 0); (0x3001, 21, 19, 0);
      (0x2801, 22, 19, 0); (0x2401, 23, 20, 0); (0x2201, 24, 21, 0);
      (0x1C01, 25, 22, 0); (0x1801, 26, 23, 0); (0x1601, 27, 24, 0);
      (0x1401, 28, 25, 0); (0x1201, 29, 26, 0); (0x1101, 30, 27, 0);
      (0x0AC1, 31, 28, 0); (0x09C1, 32, 29, 0); (0x08A1, 33, 30, 0);
      (0x0521, 34, 31, 0); (0x0441, 35, 32, 0); (0x02A1, 36, 33, 0);
      (0x0221, 37, 34, 0); (0x0141, 38, 35, 0); (0x0111, 39, 36, 0);
      (0x0085, 40, 37, 0); (0x0049, 41, 38, 0); (0x0025, 42, 39, 0);
      (0x0015, 43, 40, 0); (0x0009, 44, 41, 0); (0x0005, 45, 42, 0);
      (0x0001, 45, 43, 0); (0x5601, 46, 46, 0) ]
  in
  Alcotest.(check int) "94 packed states" 94 (Array.length Jpeg2000.Mq.qe);
  List.iteri
    (fun index (qe, nmps, nlps, switch) ->
      List.iter
        (fun mps ->
          let st = (index lsl 1) lor mps in
          let lps_mps = if switch = 1 then 1 - mps else mps in
          Alcotest.(check (list int))
            (Printf.sprintf "state %d, MPS %d" index mps)
            [ qe; (nmps lsl 1) lor mps; (nlps lsl 1) lor lps_mps ]
            [ Jpeg2000.Mq.qe.(st); Jpeg2000.Mq.after_mps.(st);
              Jpeg2000.Mq.after_lps.(st) ])
        [ 0; 1 ])
    rows;
  List.iter
    (fun index ->
      Alcotest.(check (list int))
        (Printf.sprintf "SWITCH state %d flips the MPS" index)
        [ 1; 0 ]
        [ Jpeg2000.Mq.after_lps.(index lsl 1) land 1;
          Jpeg2000.Mq.after_lps.((index lsl 1) lor 1) land 1 ])
    [ 0; 6; 14 ]

let mq_roundtrip_qcheck =
  QCheck.Test.make ~name:"MQ encode/decode identity (random contexts)"
    ~count:100
    QCheck.(
      pair (int_range 1 6)
        (list_of_size Gen.(1 -- 2000) (pair (int_bound 5) (int_bound 1))))
    (fun (nctx, stream) ->
      let enc_ctx = Array.make nctx 0 in
      let enc = Jpeg2000.Mq.encoder () in
      List.iter
        (fun (c, bit) -> Jpeg2000.Mq.encode enc enc_ctx (c mod nctx) bit)
        stream;
      let data = Jpeg2000.Mq.flush enc in
      let dec_ctx = Array.make nctx 0 in
      let dec = Jpeg2000.T1.mq_decoder data in
      List.for_all
        (fun (c, bit) -> Jpeg2000.T1.mq_decode dec dec_ctx (c mod nctx) = bit)
        stream)

let mq_skewed_roundtrip_qcheck =
  QCheck.Test.make ~name:"MQ identity on heavily skewed bit streams" ~count:60
    QCheck.(list_of_size Gen.(1 -- 3000) (int_bound 99))
    (fun stream ->
      (* 1% ones: exercises the high-compression end of the table. *)
      let bits = List.map (fun v -> if v = 0 then 1 else 0) stream in
      let ctx = [| 0 |] in
      let enc = Jpeg2000.Mq.encoder () in
      List.iter (Jpeg2000.Mq.encode enc ctx 0) bits;
      let data = Jpeg2000.Mq.flush enc in
      let ctx2 = [| 0 |] in
      let dec = Jpeg2000.T1.mq_decoder data in
      List.for_all (fun bit -> Jpeg2000.T1.mq_decode dec ctx2 0 = bit) bits)

let test_mq_compression_on_skewed_input () =
  let ctx = [| 0 |] in
  let enc = Jpeg2000.Mq.encoder () in
  let n = 8192 in
  for i = 0 to n - 1 do
    Jpeg2000.Mq.encode enc ctx 0 (if i mod 100 = 0 then 1 else 0)
  done;
  let data = Jpeg2000.Mq.flush enc in
  (* 8192 highly skewed bits must compress far below 1024 bytes. *)
  Alcotest.(check bool) "adaptive compression works" true
    (String.length data < 200)

let test_mq_context_isolation () =
  let contexts = [| 0; 0 |] in
  let enc = Jpeg2000.Mq.encoder () in
  for _ = 1 to 100 do
    Jpeg2000.Mq.encode enc contexts 0 0;
    Jpeg2000.Mq.encode enc contexts 1 1
  done;
  (* A packed state's low bit is its MPS. *)
  Alcotest.(check bool) "contexts adapt independently" true
    (contexts.(0) land 1 = 0 && contexts.(1) land 1 = 1);
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

(* Random block with magnitudes below 2^bits: about a third of the
   coefficients non-zero or, [dense], every one of them. *)
let t1_random_block ?(dense = false) ~w ~h ~bits seed =
  let state = ref (seed + 11) in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state
  in
  Array.init (w * h) (fun _ ->
      if (not dense) && next () mod 3 <> 0 then 0
      else
        let v =
          if dense then 1 + (next () mod ((1 lsl bits) - 1))
          else next () land ((1 lsl bits) - 1)
        in
        if next () land 1 = 0 then v else -v)

(* Heights 4q + 1 .. 4q + 4: one block of every [h mod 4] class, so
   each draw has a partial last stripe of every length and the full
   one. *)
let t1_heights q = List.init 4 (fun c -> (4 * q) + c + 1)

(* A full 32x32 block decoded through the scratch path right before a
   smaller one, so the smaller decode starts from this domain's longer,
   dirty scratch buffers. *)
let t1_big_scratch_decode =
  let planes, segments =
    Jpeg2000.T1.encode_block_scalable ~orientation:Jpeg2000.Subband.HH ~w:32
      ~h:32
      (t1_random_block ~w:32 ~h:32 ~bits:10 99)
  in
  fun () ->
    ignore
      (Jpeg2000.T1.decode_block_scalable_scratch
         ~orientation:Jpeg2000.Subband.HH ~w:32 ~h:32 ~planes segments)

(* Every decode entry point, default (specialised passes) against
   [~lut:false] (generic driver), on one block: the single codeword,
   a prefix of the per-pass segments, and that prefix again through
   the scratch state after a larger block. *)
let t1_decoders_agree ~orientation ~w ~h ~planes ~codeword ~scalable_planes
    segments =
  let block lut =
    Jpeg2000.T1.decode_block ~lut ~orientation ~w ~h ~planes codeword
  in
  let scalable lut =
    Jpeg2000.T1.decode_block_scalable ~lut ~orientation ~w ~h
      ~planes:scalable_planes segments
  in
  let scratch lut =
    t1_big_scratch_decode ();
    Array.sub
      (Jpeg2000.T1.decode_block_scalable_scratch ~lut ~orientation ~w ~h
         ~planes:scalable_planes segments)
      0 (w * h)
  in
  let s = scalable true in
  block true = block false && s = scalable false && scratch true = s
  && scratch false = s

let t1_specialised_decoder_qcheck =
  QCheck.Test.make
    ~name:"T1 specialised decoder equals the generic reference" ~count:300
    QCheck.(
      quad
        (pair (int_range 1 64) (int_range 0 15))
        (pair (int_bound 3) bool) (int_range 1 12) (pair small_nat small_nat))
    (fun ((w, q), (band_code, dense), bits, (seed, cut)) ->
      let orientation = Jpeg2000.Subband.orientation_of_code band_code in
      List.for_all
        (fun h ->
          let coeffs = t1_random_block ~dense ~w ~h ~bits seed in
          let planes, codeword =
            Jpeg2000.T1.encode_block ~orientation ~w ~h coeffs
          in
          let sp, segments =
            Jpeg2000.T1.encode_block_scalable ~orientation ~w ~h coeffs
          in
          let keep = cut mod (List.length segments + 1) in
          let prefix = List.filteri (fun i _ -> i < keep) segments in
          Jpeg2000.T1.decode_block ~orientation ~w ~h ~planes codeword = coeffs
          && t1_decoders_agree ~orientation ~w ~h ~planes ~codeword
               ~scalable_planes:sp prefix)
        (t1_heights q))

(* Damaged input: both drivers must return the same block, or both
   raise an exception the robust decode path contains. *)
let t1_damage seed segments =
  let state = ref (seed + 17) in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state
  in
  List.map
    (fun seg ->
      let b = Bytes.of_string seg in
      let n = Bytes.length b in
      for _ = 1 to next () mod 4 do
        if n > 0 then begin
          let i = next () mod n in
          Bytes.set b i
            (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (next () mod 8))))
        end
      done;
      let b = Bytes.to_string b in
      match next () mod 4 with
      | 0 -> String.sub b 0 (next () mod (n + 1))
      | 1 -> b ^ "\xff\xff\x00"
      | _ -> b)
    segments

let t1_hostile_segments_qcheck =
  QCheck.Test.make ~name:"T1 drivers agree on damaged segments" ~count:300
    QCheck.(
      quad
        (pair (int_range 1 64) (int_range 0 15))
        (pair (int_bound 3) bool) (int_range 0 40) (pair small_nat small_nat))
    (fun ((w, q), (band_code, dense), planes, (seed, extra)) ->
      let orientation = Jpeg2000.Subband.orientation_of_code band_code in
      List.for_all
        (fun h ->
          let _, segments =
            Jpeg2000.T1.encode_block_scalable ~orientation ~w ~h
              (t1_random_block ~dense ~w ~h ~bits:8 seed)
          in
          let damaged = t1_damage seed segments in
          (* Junk segments beyond the encoder's, and a codeword that is
             the damaged segments glued together. *)
          let damaged =
            damaged
            @ List.init (extra mod 3) (fun i -> String.make (i + 1) '\x9f')
          in
          let codeword = String.concat "" damaged in
          let contained f =
            match f () with
            | v -> Ok v
            | exception (Failure _ | Invalid_argument _ | Exit | Not_found) ->
              Error ()
          in
          let outcome lut =
            ( contained (fun () ->
                  Jpeg2000.T1.decode_block ~lut ~orientation ~w ~h ~planes
                    codeword),
              contained (fun () ->
                  Jpeg2000.T1.decode_block_scalable ~lut ~orientation ~w ~h
                    ~planes damaged),
              contained (fun () ->
                  t1_big_scratch_decode ();
                  Array.sub
                    (Jpeg2000.T1.decode_block_scalable_scratch ~lut
                       ~orientation ~w ~h ~planes damaged)
                    0 (w * h)) )
          in
          outcome true = outcome false)
        (t1_heights q))

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
    (raised { Jpeg2000.Encoder.default_lossy with base_step = 0.0 });
  (* Fields the codestream cannot carry: the parser would refuse the
     stream, so the encoder must refuse to write it. *)
  Alcotest.(check bool) "levels beyond the codestream's" true
    (raised { Jpeg2000.Encoder.default_lossless with levels = 13 });
  Alcotest.(check bool) "code block beyond the codestream's" true
    (raised { Jpeg2000.Encoder.default_lossless with code_block = 8192 });
  Alcotest.(check bool) "tile beyond the codestream's" true
    (raised { Jpeg2000.Encoder.default_lossless with tile_w = 70000 })

(* -- Codestream ------------------------------------------------------ *)

let sample_stream () =
  let img = Jpeg2000.Image.smooth ~width:40 ~height:24 ~components:3 ~seed:3 in
  let config = { Jpeg2000.Encoder.default_lossless with tile_w = 16; tile_h = 16 } in
  (img, Jpeg2000.Encoder.encode config img)

let test_codestream_roundtrip () =
  let _, data = sample_stream () in
  let parsed = parse_ok data in
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
    (List.length (Jpeg2000.Codestream.block_grid ~code_block:16 ~w:0 ~h:8));
  List.iter
    (fun (w, h) ->
      Alcotest.(check int) (Printf.sprintf "block_count %dx%d" w h)
        (List.length (Jpeg2000.Codestream.block_grid ~code_block:16 ~w ~h))
        (Jpeg2000.Codestream.block_count ~code_block:16 ~w ~h))
    [ (32, 32); (20, 19); (0, 8); (8, 0); (1, 1); (16, 17); (33, 64) ]

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
  let error s =
    match Jpeg2000.Codestream.parse_result s with
    | Ok _ -> Alcotest.fail "damaged stream parsed"
    | Error e -> e
  in
  Alcotest.(check bool) "bad magic" true
    (error ("XXXX" ^ String.sub data 4 (String.length data - 4))
    = Jpeg2000.Codestream.Bad_magic);
  let half = String.length data / 2 in
  (match error (String.sub data 0 half) with
  | Jpeg2000.Codestream.Truncated off ->
    Alcotest.(check bool) "truncated inside the prefix" true (off <= half)
  | e -> Alcotest.failf "truncated: got %s" (Jpeg2000.Codestream.error_message e));
  Alcotest.(check bool) "trailing" true
    (error (data ^ "z") = Jpeg2000.Codestream.Trailing 1);
  (* A stream covers its tile grid exactly once, segment k in cell k. *)
  let grid =
    parse_ok
      (Jpeg2000.Encoder.encode
         { Jpeg2000.Encoder.default_lossless with tile_w = 32; tile_h = 32 }
         (Jpeg2000.Image.smooth ~width:64 ~height:64 ~components:1 ~seed:5))
  in
  let tile0 = List.hd grid.Jpeg2000.Codestream.tiles in
  List.iter
    (fun (what, tiles) ->
      let s = Jpeg2000.Codestream.emit { grid with Jpeg2000.Codestream.tiles } in
      (match error s with
      | Jpeg2000.Codestream.Bad_field _ -> ()
      | e -> Alcotest.failf "%s: got %s" what (Jpeg2000.Codestream.error_message e));
      match Jpeg2000.Decoder.decode_robust s with
      | Ok _ -> Alcotest.failf "%s: decode_robust accepted it" what
      | Error _ -> ())
    [
      ("first tile only", [ tile0 ]);
      ( "tile 0 repeated as tile 1",
        tile0 :: { tile0 with Jpeg2000.Codestream.tile_index = 1 }
        :: List.tl (List.tl grid.Jpeg2000.Codestream.tiles) );
    ]

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
  (* Reduced decodes must keep the mean brightness in place. *)
  let img = Jpeg2000.Image.smooth ~width:64 ~height:64 ~components:1 ~seed:33 in
  let data =
    Jpeg2000.Encoder.encode
      { Jpeg2000.Encoder.default_lossy with tile_w = 64; tile_h = 64 }
      img
  in
  let mean image =
    let p = Jpeg2000.Image.plane_to_array image.Jpeg2000.Image.planes.(0) in
    float_of_int (Array.fold_left ( + ) 0 p) /. float_of_int (Array.length p)
  in
  let full = Jpeg2000.Decoder.decode data in
  let half = Jpeg2000.Decoder.decode_reduced ~discard_levels:1 data in
  Alcotest.(check int) "half size" 32 (Jpeg2000.Image.width half);
  Alcotest.(check bool)
    (Printf.sprintf "brightness preserved (%.1f vs %.1f)" (mean half) (mean full))
    true
    (Float.abs (mean half -. mean full) < 4.0);
  (* Every level discarded: only the LL band is left. *)
  let levels = Jpeg2000.Encoder.default_lossy.Jpeg2000.Encoder.levels in
  let ll = Jpeg2000.Decoder.decode_reduced ~discard_levels:levels data in
  Alcotest.(check int) "LL-only width" (64 lsr levels) (Jpeg2000.Image.width ll);
  Alcotest.(check int) "LL-only height" (64 lsr levels)
    (Jpeg2000.Image.height ll);
  Alcotest.(check bool)
    (Printf.sprintf "LL-only brightness preserved (%.1f vs %.1f)" (mean ll)
       (mean full))
    true
    (Float.abs (mean ll -. mean full) < 4.0)

let test_reduced_resolution_constant_image () =
  (* Both low-pass filters have unit DC gain, so a flat image stays
     flat at every resolution, in both modes. *)
  List.iter
    (fun (mode, config) ->
      let config = { config with Jpeg2000.Encoder.tile_w = 64; tile_h = 64 } in
      List.iter
        (fun components ->
          let img = Jpeg2000.Image.create ~width:64 ~height:64 ~components () in
          Array.iter
            (fun p -> Jpeg2000.Image.fill_plane p 200)
            img.Jpeg2000.Image.planes;
          let data = Jpeg2000.Encoder.encode config img in
          for d = 0 to config.Jpeg2000.Encoder.levels do
            let samples =
              Array.concat
                (List.map Jpeg2000.Image.plane_to_array
                   (Array.to_list
                      (Jpeg2000.Decoder.decode_reduced ~discard_levels:d data)
                        .Jpeg2000.Image.planes))
            in
            Alcotest.(check (pair int int))
              (Printf.sprintf "%s, %d components, discard %d: (min, max)" mode
                 components d)
              (200, 200)
              (Array.fold_left min max_int samples,
               Array.fold_left max min_int samples)
          done)
        [ 1; 3 ])
    [
      ("lossless", Jpeg2000.Encoder.default_lossless);
      ("lossy", Jpeg2000.Encoder.default_lossy);
    ]

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
  let stream = parse_ok data in
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

(* One tile decoded by a chain of reference kernels instead of the
   decoder's stages: generic T1 ([~lut:false]) per code block into a
   fresh array, [Quant.dequantise] per band, the per-line inverse
   wavelets and the unfused colour chains of the "fused ... equals the
   ... chain" properties. It shares with the decoder only the band and
   block geometry, the quantiser steps and the innermost arithmetic
   (MQ coder, lifting steps). Returns the tile's samples per
   component, row-major. *)
let reference_tile (header : Jpeg2000.Codestream.header)
    (seg : Jpeg2000.Codestream.tile_segment) =
  let module C = Jpeg2000.Codestream in
  let w = seg.C.tile_w and h = seg.C.tile_h and levels = header.C.levels in
  let bands = Jpeg2000.Subband.decompose ~width:w ~height:h ~levels in
  (* where sample [i] of a [bw]-wide rectangle at [(x0, y0)] lands *)
  let at ~x0 ~y0 ~bw i = ((y0 + (i / bw)) * w) + x0 + (i mod bw) in
  let index (band : Jpeg2000.Subband.band) =
    at ~x0:band.x0 ~y0:band.y0 ~bw:band.w
  in
  (* Mallat-layout coefficients of one component *)
  let coefficients segments =
    let coeffs = Array.make (w * h) 0 in
    List.iter2
      (fun (band : Jpeg2000.Subband.band) (bseg : C.band_segment) ->
        List.iter2
          (fun (x0, y0, bw, bh) (blk : C.block_segment) ->
            Array.iteri
              (fun i v ->
                coeffs.(at ~x0:(band.x0 + x0) ~y0:(band.y0 + y0) ~bw i) <- v)
              (Jpeg2000.T1.decode_block_scalable ~lut:false
                 ~orientation:band.orientation ~w:bw ~h:bh
                 ~planes:blk.C.blk_planes blk.C.blk_passes))
          (C.block_grid ~code_block:header.C.code_block ~w:band.w ~h:band.h)
          bseg.C.seg_blocks)
      bands segments;
    coeffs
  in
  let comps = Array.map coefficients seg.C.comps in
  let shifted a =
    Jpeg2000.Colour.dc_shift_inverse ~bit_depth:header.C.bit_depth a;
    a
  in
  match header.C.mode with
  | C.Lossless ->
    let spatial =
      Array.map
        (fun c ->
          let p = Jpeg2000.Plane.of_array ~w ~h c in
          Jpeg2000.Dwt53.inverse_plane p ~levels;
          Array.init (w * h) (fun i ->
              Jpeg2000.Plane.get p ~x:(i mod w) ~y:(i / w)))
        comps
    in
    (match spatial with
    | [| y; cb; cr |] -> Jpeg2000.Colour.rct_inverse y cb cr
    | _ -> ());
    Array.map shifted spatial
  | C.Lossy ->
    let spatial =
      Array.map
        (fun c ->
          let values = Array.make (w * h) 0.0 in
          List.iter
            (fun (band : Jpeg2000.Subband.band) ->
              let step =
                Jpeg2000.Quant.step_for ~base_step:header.C.base_step ~levels
                  ~level:band.level band.orientation
              in
              let q =
                Array.init (band.w * band.h) (fun i -> c.(index band i))
              in
              Array.iteri
                (fun i v -> values.(index band i) <- v)
                (Jpeg2000.Quant.dequantise ~step q))
            bands;
          Jpeg2000.Dwt97.inverse
            { Jpeg2000.Dwt97.mw = w; mh = h; values }
            ~levels;
          values)
        comps
    in
    (match spatial with
    | [| y; cb; cr |] -> Jpeg2000.Colour.ict_inverse y cb cr
    | _ -> ());
    Array.map
      (fun v -> shifted (Array.map (fun x -> int_of_float (Float.round x)) v))
      spatial

(* The decoder against that reference on random streams: both modes,
   1 or 3 components, random image, tile and code-block sizes and
   0-3 wavelet levels. *)
let reference_decode_qcheck =
  QCheck.Test.make ~name:"decode equals the independent reference chain"
    ~count:150
    (QCheck.make
       ~print:(fun (lossy, comps, (w, h), (tw, th), levels, cb, seed) ->
         Printf.sprintf "%s comps=%d %dx%d tiles %dx%d levels=%d cb=%d seed=%d"
           (if lossy then "lossy" else "lossless")
           comps w h tw th levels cb seed)
       QCheck.Gen.(
         let* lossy = bool in
         let* comps = oneofl [ 1; 3 ] in
         let* w = int_range 1 40 in
         let* h = int_range 1 40 in
         let* tw = int_range 4 40 in
         let* th = int_range 4 40 in
         let* levels = int_range 0 3 in
         let* cb = int_range 2 24 in
         let* seed = int_range 0 9_999 in
         return (lossy, comps, (w, h), (tw, th), levels, cb, seed)))
    (fun (lossy, comps, (width, height), (tile_w, tile_h), levels, code_block,
          seed) ->
      let img =
        if seed mod 2 = 0 then
          Jpeg2000.Image.smooth ~width ~height ~components:comps ~seed
        else Jpeg2000.Image.noise ~width ~height ~components:comps ~seed
      in
      let config =
        {
          (if lossy then Jpeg2000.Encoder.default_lossy
           else Jpeg2000.Encoder.default_lossless)
          with
          tile_w;
          tile_h;
          levels;
          code_block;
        }
      in
      let data = Jpeg2000.Encoder.encode config img in
      let stream = parse_ok data in
      let decoded = Jpeg2000.Decoder.decode data in
      List.for_all
        (fun (seg : Jpeg2000.Codestream.tile_segment) ->
          let w = seg.tile_w in
          let decoded_samples c =
            Array.init (w * seg.tile_h) (fun i ->
                Jpeg2000.Image.plane_get decoded.Jpeg2000.Image.planes.(c)
                  ~x:(seg.tile_x0 + (i mod w))
                  ~y:(seg.tile_y0 + (i / w)))
          in
          reference_tile stream.Jpeg2000.Codestream.header seg
          = Array.init comps decoded_samples)
        stream.Jpeg2000.Codestream.tiles)

(* -- the framing walk ------------------------------------------------ *)

let stream_sample = lazy (snd (sample_stream ()))

(* The walk is prefix-closed: on clean streams, truncated prefixes and
   bit-stomped variants alike, the segments of every prefix are
   exactly the segments of the whole that end inside it, and the
   walk's error is the one parse_result reports. *)
let walk_prefix_closed_qcheck =
  QCheck.Test.make ~name:"walk segments are prefix-closed" ~count:120
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
      let walk_error data =
        (Jpeg2000.Codestream.parse_prefix data).Jpeg2000.Codestream.error
      in
      let result_error data =
        match Jpeg2000.Codestream.parse_result data with
        | Ok _ -> None
        | Error e -> Some e
      in
      let whole = Jpeg2000.Codestream.parse_prefix data in
      walk_error data = result_error data
      && List.for_all
           (fun c ->
             let cut = c mod (m + 1) in
             let prefix = String.sub data 0 cut in
             (Jpeg2000.Codestream.parse_prefix prefix).Jpeg2000.Codestream.segments
             = List.filter
                 (fun (_, e) -> e <= cut)
                 whole.Jpeg2000.Codestream.segments
             && walk_error prefix = result_error prefix)
           cuts)

(* A whole-tile concealment fills the tile's rectangle of the image
   with the DC level; it must equal the all-zero coefficients pushed
   through the dequantise, IDWT and colour stages and assembled at the
   same place, for any tile geometry, depth, component count and
   either wavelet. *)
let concealed_tile_qcheck =
  QCheck.Test.make ~name:"concealed tile equals the four stages" ~count:200
    (QCheck.make
       ~print:(fun (w, h, levels, lossy, comps, depth) ->
         Printf.sprintf "%dx%d levels=%d %s comps=%d depth=%d" w h levels
           (if lossy then "lossy" else "lossless")
           comps depth)
       QCheck.Gen.(
         let* w = int_range 1 40 in
         let* h = int_range 1 40 in
         let* levels = int_range 0 5 in
         let* lossy = bool in
         let* comps = int_range 1 4 in
         let* depth = int_range 1 16 in
         return (w, h, levels, lossy, comps, depth)))
    (fun (w, h, levels, lossy, comps, depth) ->
      (* the second tile of a two-tile row *)
      let header =
        {
          Jpeg2000.Codestream.width = 2 * w;
          height = h;
          components = comps;
          tile_w = w;
          tile_h = h;
          levels;
          mode = (if lossy then Jpeg2000.Codestream.Lossy else Lossless);
          bit_depth = depth;
          base_step = 2.0;
          code_block = 8;
        }
      in
      let tile =
        {
          Jpeg2000.Codestream.tile_index = 1;
          tile_x0 = w;
          tile_y0 = 0;
          tile_w = w;
          tile_h = h;
          comps = Array.make comps [];
        }
      in
      let staged =
        Jpeg2000.Decoder.concealed_entropy_decoded header tile
        |> Jpeg2000.Decoder.dequantise header
        |> Jpeg2000.Decoder.inverse_wavelet header
        |> Jpeg2000.Decoder.inverse_colour_and_shift header tile
      in
      let assemble =
        Jpeg2000.Tile.assemble ~width:(2 * w) ~height:h ~components:comps
          ~bit_depth:depth
      in
      let concealed = assemble [] in
      Jpeg2000.Decoder.conceal_tile header concealed tile;
      Jpeg2000.Image.equal concealed (assemble [ staged ]))

(* Cutting the sample stream at, just before and just after every unit
   boundary — the magic, the preamble and each tile segment's end —
   leaves the header only once the preamble is whole and exactly the
   segments the cut contains. *)
let test_stream_truncation_at_boundaries () =
  let data = Lazy.force stream_sample in
  let n = String.length data in
  let whole = Jpeg2000.Codestream.parse_prefix data in
  let tile_ends = List.map snd whole.Jpeg2000.Codestream.segments in
  Alcotest.(check int) "six tile units" 6 (List.length tile_ends);
  let preamble_end =
    String.length
      (Jpeg2000.Codestream.emit
         { (parse_ok data) with Jpeg2000.Codestream.tiles = [] })
  in
  List.iter
    (fun b ->
      List.iter
        (fun cut ->
          if cut >= 0 && cut <= n then begin
            let walk =
              Jpeg2000.Codestream.parse_prefix (String.sub data 0 cut)
            in
            (match walk.Jpeg2000.Codestream.error with
            | None when cut = n -> ()
            | Some Jpeg2000.Codestream.Bad_magic when cut < 4 -> ()
            | Some (Jpeg2000.Codestream.Truncated off) when cut >= 4 && cut < n
              ->
              if off > cut then Alcotest.failf "cut %d: truncated at %d" cut off
            | _ -> Alcotest.failf "cut %d: wrong error" cut);
            Alcotest.(check bool)
              (Printf.sprintf "cut %d: header" cut)
              (cut >= preamble_end)
              (walk.Jpeg2000.Codestream.header <> None);
            Alcotest.(check int)
              (Printf.sprintf "cut %d: segments" cut)
              (List.length (List.filter (fun e -> e <= cut) tile_ends))
              (List.length walk.Jpeg2000.Codestream.segments)
          end)
        [ b - 1; b; b + 1 ])
    (0 :: 4 :: preamble_end :: tile_ends)

(* -- flat coefficient planes ----------------------------------------

   The decoder runs on flat planes (off-heap planes, scratch T1,
   in-place IDWT). Golden FNV-1a-64 digests, recorded while a second
   whole-tile pipeline still agreed with it, pin its output on every
   entry point; set PRINT_GOLDENS=1 to regenerate the table after an
   intentional output change. *)

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
  Alcotest.(check (array int)) "of_array round-trips" (plane_ints p)
    (plane_ints (Jpeg2000.Plane.of_array ~w:5 ~h:3 (plane_ints p)));
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
      Array.iter (fun v -> h := fnv_int !h v) (Jpeg2000.Image.plane_to_array p))
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
   qcheck suite through the previous release), and again when lossy
   reduced decodes stopped multiplying by K^(2 discard): only the
   lossy [decode_reduced] term of each digest moved. *)
let flat_golden_digests =
  [| "0ef637cef078139c"; "8e81bc6bc7f1584a";
     "7aa4c8e21f8e81e5"; "774bc84e36b0126b" |]

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

(* Every code block of one lossless and one lossy case-study stream
   (Models.Workload.codestream: 128x128, 32x32 tiles, 3 levels, 16x16
   code blocks, 3 components), decoded through the scratch entry point
   the decoder runs. FNV-1a-64 over each block's orientation, size,
   plane count and signed coefficients. Recorded before the decoding
   passes moved to stripe-column words. *)
let t1_block_digest mode =
  let cs =
    match Jpeg2000.Codestream.parse_result (Models.Workload.codestream mode) with
    | Ok cs -> cs
    | Error e -> Alcotest.fail (Jpeg2000.Codestream.error_message e)
  in
  let code_block = cs.Jpeg2000.Codestream.header.Jpeg2000.Codestream.code_block in
  let block h (band : Jpeg2000.Codestream.band_segment) (_, _, w, bh)
      (blk : Jpeg2000.Codestream.block_segment) =
    let coeffs =
      Jpeg2000.T1.decode_block_scalable_scratch
        ~orientation:band.Jpeg2000.Codestream.seg_orientation ~w ~h:bh
        ~planes:blk.Jpeg2000.Codestream.blk_planes
        blk.Jpeg2000.Codestream.blk_passes
    in
    let h =
      fnv_int h
        (Jpeg2000.Subband.orientation_code band.Jpeg2000.Codestream.seg_orientation)
    in
    let h = fnv_int (fnv_int (fnv_int h w) bh) blk.Jpeg2000.Codestream.blk_planes in
    let h = ref h in
    for i = 0 to (w * bh) - 1 do
      h := fnv_int !h coeffs.(i)
    done;
    !h
  in
  let band h (band : Jpeg2000.Codestream.band_segment) =
    List.fold_left2 (fun h cell blk -> block h band cell blk) h
      (Jpeg2000.Codestream.block_grid ~code_block ~w:band.Jpeg2000.Codestream.seg_w
         ~h:band.Jpeg2000.Codestream.seg_h)
      band.Jpeg2000.Codestream.seg_blocks
  in
  List.fold_left
    (fun h (tile : Jpeg2000.Codestream.tile_segment) ->
      Array.fold_left (List.fold_left band) h tile.Jpeg2000.Codestream.comps)
    0xcbf29ce484222325L cs.Jpeg2000.Codestream.tiles

let test_t1_block_digests () =
  List.iter
    (fun (name, mode, want) ->
      Alcotest.(check string) name want
        (Printf.sprintf "%016Lx" (t1_block_digest mode)))
    [
      ("lossless", Jpeg2000.Codestream.Lossless, "0d42e993fb77d56c");
      ("lossy", Jpeg2000.Codestream.Lossy, "71fc9e5b28090a64");
    ]

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
  (* The staged protocol (staged_run/finish_staged_ok) and the
     monolithic decode_tile must agree tile for tile, and a result
     array of the wrong length is refused. *)
  let img = Jpeg2000.Image.smooth ~width:40 ~height:24 ~components:3 ~seed:29 in
  List.iter
    (fun (name, config) ->
      let data = Jpeg2000.Encoder.encode config img in
      let stream = parse_ok data in
      let header = stream.Jpeg2000.Codestream.header in
      List.iter
        (fun tile ->
          let reference = Jpeg2000.Decoder.decode_tile header tile in
          let st = Jpeg2000.Decoder.stage_tile header tile in
          let n = Jpeg2000.Decoder.staged_jobs st in
          let staged, concealed =
            Jpeg2000.Decoder.finish_staged_ok st
              (Array.init n (Jpeg2000.Decoder.staged_run st))
          in
          Alcotest.(check int) (name ^ " concealed") 0 concealed;
          Alcotest.(check bool) (name ^ " tile") true (staged = reference);
          Alcotest.check_raises (name ^ " result count")
            (Invalid_argument "Decoder.finish_staged_ok: result count mismatch")
            (fun () ->
              ignore
                (Jpeg2000.Decoder.finish_staged_ok st (Array.make (n + 1) true))))
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
          Alcotest.test_case "plane_set range" `Quick test_plane_set_range;
          qc sample_store_qcheck;
          qc pnm_random_qcheck;
          Alcotest.test_case "assemble allocation" `Quick
            test_assemble_allocation;
          Alcotest.test_case "lossy finish allocation" `Quick
            test_lossy_finish_allocation;
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
          qc colour_fused_qcheck;
          Alcotest.test_case "lossy rounding cases" `Quick
            test_colour_rounding_cases;
          qc colour_fused_lossless_qcheck;
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
          qc dwt53_flat_equals_boxed_qcheck;
          Alcotest.test_case "9/7 constant line" `Quick test_dwt97_constant_line;
          qc dwt97_roundtrip_qcheck;
          Alcotest.test_case "9/7 bits golden" `Quick test_dwt97_bits_golden;
          Alcotest.test_case "9/7 in place equals reference on small shapes"
            `Quick test_dwt97_flat_small_shapes;
        ] );
      ( "quant",
        [
          Alcotest.test_case "step ordering" `Quick test_quant_steps_ordered;
          Alcotest.test_case "zero stays zero" `Quick test_quant_zero_stays_zero;
          qc quant_error_bound_qcheck;
          qc quant_band_qcheck;
          Alcotest.test_case "band bounds" `Quick test_quant_band_bounds;
        ] );
      ( "mq",
        [
          Alcotest.test_case "empty flush" `Quick test_mq_empty_flush;
          Alcotest.test_case "no markers emitted" `Quick test_mq_stuffing_pattern;
          Alcotest.test_case "adaptive compression" `Quick
            test_mq_compression_on_skewed_input;
          Alcotest.test_case "context isolation" `Quick test_mq_context_isolation;
          Alcotest.test_case "flat Table C.2" `Quick test_mq_table_c2;
          Alcotest.test_case "packed Table C.2" `Quick test_mq_packed_states;
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
          qc t1_specialised_decoder_qcheck;
          qc t1_hostile_segments_qcheck;
          Alcotest.test_case "case-study block digests" `Quick
            test_t1_block_digests;
        ] );
      ( "misc",
        [
          Alcotest.test_case "orientation codes" `Quick test_orientation_codes;
          Alcotest.test_case "subband gains" `Quick test_subband_gains;
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
          qc walk_prefix_closed_qcheck;
          Alcotest.test_case "truncation at marker boundaries" `Quick
            test_stream_truncation_at_boundaries;
        ] );
      ("conceal", [ qc concealed_tile_qcheck ]);
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
          qc reference_decode_qcheck;
          Alcotest.test_case "reduced-resolution decode" `Quick
            test_reduced_resolution_decode;
          Alcotest.test_case "reduced lossy brightness" `Quick
            test_reduced_resolution_lossy_brightness;
          Alcotest.test_case "reduced constant image" `Quick
            test_reduced_resolution_constant_image;
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
