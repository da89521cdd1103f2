(* Command-line JPEG 2000 codec over the library's simplified
   codestream: encode/decode PGM/PPM images, inspect streams. *)

open Cmdliner

(* An input error names the file or the flag value at fault and the
   reason, then exits 2. *)
let input_error what fmt =
  Printf.ksprintf
    (fun reason ->
      Printf.eprintf "j2k_codec: %s: %s\n" what reason;
      exit 2)
    fmt

(* [Sys_error] messages already start with the file name. *)
let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | data -> data
  | exception Sys_error msg ->
    Printf.eprintf "j2k_codec: %s\n" msg;
    exit 2

let read_codestream path =
  let data = read_file path in
  match Jpeg2000.Codestream.parse_result data with
  | Ok stream -> (data, stream)
  | Error e -> input_error path "%s" (Jpeg2000.Codestream.error_message e)

let read_pnm path =
  match Jpeg2000.Image.of_pnm (read_file path) with
  | image -> image
  | exception Failure msg -> input_error path "%s" msg

let positive flag v =
  if v <= 0 then input_error (Printf.sprintf "%s %d" flag v) "must be positive"

let non_negative flag v =
  if v < 0 then input_error (Printf.sprintf "%s %d" flag v) "must be >= 0"

let write_file path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

let mode_conv =
  let parse = function
    | "lossless" -> Ok Jpeg2000.Codestream.Lossless
    | "lossy" -> Ok Jpeg2000.Codestream.Lossy
    | other -> Error (`Msg (Printf.sprintf "unknown mode %S" other))
  in
  Arg.conv (parse, Jpeg2000.Codestream.pp_mode)

let input_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"INPUT" ~doc:"Input file.")

let output_arg =
  Arg.(required & pos 1 (some string) None & info [] ~docv:"OUTPUT" ~doc:"Output file.")

let mode_arg =
  Arg.(
    value
    & opt mode_conv Jpeg2000.Codestream.Lossless
    & info [ "m"; "mode" ] ~docv:"MODE" ~doc:"Coding mode: lossless (5/3) or lossy (9/7).")

let tile_arg =
  Arg.(value & opt int 128 & info [ "t"; "tile" ] ~docv:"N" ~doc:"Tile size (N x N).")

let levels_arg =
  Arg.(value & opt int 3 & info [ "l"; "levels" ] ~docv:"L" ~doc:"Wavelet levels.")

let step_arg =
  Arg.(
    value & opt float 2.0
    & info [ "s"; "step" ] ~docv:"STEP" ~doc:"Lossy quantiser base step.")

let code_block_arg =
  Arg.(
    value & opt int 32
    & info [ "b"; "code-block" ] ~docv:"N" ~doc:"EBCOT code-block size (N x N).")

let encode_cmd =
  let run input output mode tile levels step code_block =
    positive "--tile" tile;
    non_negative "--levels" levels;
    if not (step > 0.0) then
      input_error (Printf.sprintf "--step %g" step) "must be positive";
    positive "--code-block" code_block;
    let image = read_pnm input in
    let config =
      {
        Jpeg2000.Encoder.tile_w = tile;
        tile_h = tile;
        levels;
        mode;
        base_step = step;
        code_block;
      }
    in
    let data = Jpeg2000.Encoder.encode config image in
    write_file output data;
    Printf.printf "%s: %dx%dx%d -> %d bytes (%.2f bits/sample, %s)\n" output
      (Jpeg2000.Image.width image) (Jpeg2000.Image.height image)
      (Jpeg2000.Image.components image) (String.length data)
      (8.0 *. float_of_int (String.length data)
      /. float_of_int
           (Jpeg2000.Image.width image * Jpeg2000.Image.height image
          * Jpeg2000.Image.components image))
      (Format.asprintf "%a" Jpeg2000.Codestream.pp_mode mode)
  in
  Cmd.v
    (Cmd.info "encode" ~doc:"Encode a PGM/PPM image to a codestream.")
    Term.(
      const run $ input_arg $ output_arg $ mode_arg $ tile_arg $ levels_arg
      $ step_arg $ code_block_arg)

let decode_cmd =
  let run input output reduce passes =
    let flag_reduce = Printf.sprintf "--reduce %d" reduce in
    non_negative "--reduce" reduce;
    Option.iter (non_negative "--passes") passes;
    (match passes with
    | Some k when reduce > 0 ->
      input_error (Printf.sprintf "--passes %d" k) "cannot be combined with %s"
        flag_reduce
    | _ -> ());
    let data, stream = read_codestream input in
    let h = stream.Jpeg2000.Codestream.header in
    if reduce > h.Jpeg2000.Codestream.levels then
      input_error flag_reduce "%s has %d wavelet levels" input
        h.Jpeg2000.Codestream.levels;
    if
      h.Jpeg2000.Codestream.tile_w mod (1 lsl reduce) <> 0
      || h.Jpeg2000.Codestream.tile_h mod (1 lsl reduce) <> 0
    then
      input_error flag_reduce "%s has %dx%d tiles, not a multiple of %d" input
        h.Jpeg2000.Codestream.tile_w h.Jpeg2000.Codestream.tile_h (1 lsl reduce);
    if
      h.Jpeg2000.Codestream.bit_depth <> 8
      || not (List.mem h.Jpeg2000.Codestream.components [ 1; 3 ])
    then
      input_error input "%d-bit, %d-component images have no PGM/PPM form"
        h.Jpeg2000.Codestream.bit_depth h.Jpeg2000.Codestream.components;
    let image =
      match passes with
      | Some k -> Jpeg2000.Decoder.decode_progressive ~max_passes:k data
      | None when reduce = 0 -> Jpeg2000.Decoder.decode data
      | None -> Jpeg2000.Decoder.decode_reduced ~discard_levels:reduce data
    in
    write_file output (Jpeg2000.Image.to_pnm image);
    Printf.printf "%s: %dx%dx%d decoded%s\n" output (Jpeg2000.Image.width image)
      (Jpeg2000.Image.height image)
      (Jpeg2000.Image.components image)
      (if reduce = 0 then "" else Printf.sprintf " (1/%d resolution)" (1 lsl reduce))
  in
  Cmd.v
    (Cmd.info "decode" ~doc:"Decode a codestream back to PGM/PPM.")
    Term.(
      const run $ input_arg $ output_arg
      $ Arg.(
          value & opt int 0
          & info [ "r"; "reduce" ] ~docv:"D"
              ~doc:"Discard the D finest resolution levels (1/2^D size).")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "p"; "passes" ] ~docv:"K"
              ~doc:"Decode only the first K coding passes per code block (SNR \
                    scalability)."))

let shape_cmd =
  let run input output max_bytes =
    positive "--bytes" max_bytes;
    let data, _ = read_codestream input in
    let shaped = Jpeg2000.Rate.shape ~max_bytes data in
    write_file output shaped;
    Printf.printf "%s: %d -> %d bytes (budget %d, floor %d)\n" output
      (String.length data) (String.length shaped) max_bytes
      (Jpeg2000.Rate.minimum_bytes data)
  in
  Cmd.v
    (Cmd.info "shape" ~doc:"Truncate a codestream to a byte budget (rate shaping).")
    Term.(
      const run $ input_arg $ output_arg
      $ Arg.(
          required
          & opt (some int) None
          & info [ "bytes" ] ~docv:"N" ~doc:"Maximum output size in bytes."))

let info_cmd =
  let run input =
    let _, stream = read_codestream input in
    let h = stream.Jpeg2000.Codestream.header in
    Printf.printf "%dx%d, %d component(s), %dx%d tiles, %d levels, %s\n"
      h.Jpeg2000.Codestream.width h.Jpeg2000.Codestream.height
      h.Jpeg2000.Codestream.components h.Jpeg2000.Codestream.tile_w
      h.Jpeg2000.Codestream.tile_h h.Jpeg2000.Codestream.levels
      (Format.asprintf "%a" Jpeg2000.Codestream.pp_mode h.Jpeg2000.Codestream.mode);
    List.iter
      (fun tile ->
        Printf.printf "  tile %d @(%d,%d) %dx%d: %d entropy-coded bytes\n"
          tile.Jpeg2000.Codestream.tile_index tile.Jpeg2000.Codestream.tile_x0
          tile.Jpeg2000.Codestream.tile_y0 tile.Jpeg2000.Codestream.tile_w
          tile.Jpeg2000.Codestream.tile_h
          (Jpeg2000.Codestream.segment_bytes tile))
      stream.Jpeg2000.Codestream.tiles
  in
  Cmd.v
    (Cmd.info "info" ~doc:"Print codestream structure.")
    Term.(
      const run
      $ Arg.(required & pos 0 (some string) None & info [] ~docv:"STREAM" ~doc:"Codestream."))

let () =
  let doc = "JPEG 2000 codec (OSSS case-study substrate)" in
  let group = Cmd.group (Cmd.info "j2k_codec" ~doc) [ encode_cmd; decode_cmd; shape_cmd; info_cmd ] in
  match Cmd.eval_value ~catch:false group with
  | Ok _ -> ()
  | Error `Exn -> exit 125
  | Error (`Parse | `Term) -> exit 124
  | exception Failure msg ->
    Printf.eprintf "j2k_codec: %s\n" msg;
    exit 1
  | exception Sys_error msg ->
    Printf.eprintf "j2k_codec: %s\n" msg;
    exit 1
