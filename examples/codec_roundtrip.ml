(* Codec round-trip: the JPEG 2000 substrate end to end.

   Generates a synthetic photograph-like image, encodes it losslessly
   (5/3 + RCT + EBCOT/MQ) and lossily (9/7 + ICT + dead-zone
   quantiser), decodes both, and reports sizes and fidelity. The
   lossless path must reconstruct bit-exactly.

     dune exec examples/codec_roundtrip.exe
*)

let () =
  let image = Jpeg2000.Image.smooth ~width:256 ~height:192 ~components:3 ~seed:42 in
  let raw_bytes =
    Jpeg2000.Image.width image * Jpeg2000.Image.height image
    * Jpeg2000.Image.components image
  in
  Printf.printf "input: %dx%d, 3 components (%d bytes raw)\n\n"
    (Jpeg2000.Image.width image) (Jpeg2000.Image.height image) raw_bytes;

  (* Lossless: must round-trip exactly. *)
  let lossless_stream = Jpeg2000.Encoder.encode Jpeg2000.Encoder.default_lossless image in
  let lossless_out = Jpeg2000.Decoder.decode lossless_stream in
  Printf.printf "lossless (5/3 + RCT): %d bytes (%.2f bits/sample) - %s\n"
    (String.length lossless_stream)
    (8.0 *. float_of_int (String.length lossless_stream) /. float_of_int raw_bytes)
    (if Jpeg2000.Image.equal image lossless_out then "bit-exact reconstruction"
     else "RECONSTRUCTION MISMATCH");

  (* Lossy at a few operating points. *)
  List.iter
    (fun step ->
      let config = { Jpeg2000.Encoder.default_lossy with base_step = step } in
      let stream = Jpeg2000.Encoder.encode config image in
      let out = Jpeg2000.Decoder.decode stream in
      Printf.printf
        "lossy (9/7 + ICT), step %4.1f: %6d bytes (%.2f bits/sample), PSNR %.1f dB\n"
        step (String.length stream)
        (8.0 *. float_of_int (String.length stream) /. float_of_int raw_bytes)
        (Jpeg2000.Image.psnr image out))
    [ 1.0; 2.0; 4.0; 8.0; 16.0 ];

  (* Scalability: the same lossless stream decoded progressively. *)
  Printf.printf "\nscalable decode of the lossless stream:\n";
  List.iter
    (fun passes ->
      let out = Jpeg2000.Decoder.decode_progressive ~max_passes:passes lossless_stream in
      let psnr = Jpeg2000.Image.psnr image out in
      Printf.printf "  first %2d coding passes: %s\n" passes
        (if psnr = infinity then "exact reconstruction"
         else Printf.sprintf "PSNR %5.1f dB" psnr))
    [ 3; 6; 9; 12; 24 ];
  let half = Jpeg2000.Decoder.decode_reduced ~discard_levels:1 lossless_stream in
  Printf.printf "  resolution-scalable:    %dx%d thumbnail from the same bytes\n"
    (Jpeg2000.Image.width half) (Jpeg2000.Image.height half);

  (* The staged decoder interface used by the system models. *)
  let stream =
    match Jpeg2000.Codestream.parse_result lossless_stream with
    | Ok stream -> stream
    | Error e -> failwith (Jpeg2000.Codestream.error_message e)
  in
  let header = stream.Jpeg2000.Codestream.header in
  let first_tile = List.hd stream.Jpeg2000.Codestream.tiles in
  let staged =
    Jpeg2000.Decoder.entropy_decode_tile header first_tile
    |> Jpeg2000.Decoder.dequantise header
    |> Jpeg2000.Decoder.inverse_wavelet header
    |> Jpeg2000.Decoder.inverse_colour_and_shift header first_tile
  in
  Printf.printf
    "\nstaged decode of tile 0 (%dx%d): entropy -> IQ -> IDWT -> ICT/DC ok (%d samples)\n"
    (Jpeg2000.Tile.width staged) (Jpeg2000.Tile.height staged)
    (Jpeg2000.Tile.samples staged)
