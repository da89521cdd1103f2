type config = {
  tile_w : int;
  tile_h : int;
  levels : int;
  mode : Codestream.mode;
  base_step : float;
  code_block : int;
}

let default_lossless =
  {
    tile_w = 128;
    tile_h = 128;
    levels = 3;
    mode = Codestream.Lossless;
    base_step = 1.0;
    code_block = 32;
  }

let default_lossy = { default_lossless with mode = Codestream.Lossy; base_step = 2.0 }

let header_of_config config image =
  if config.tile_w <= 0 || config.tile_h <= 0 then
    invalid_arg "Encoder: tile size";
  if config.levels < 0 then invalid_arg "Encoder: levels";
  if config.base_step <= 0.0 then invalid_arg "Encoder: base_step";
  if config.code_block <= 0 then invalid_arg "Encoder: code_block";
  {
    Codestream.width = Image.width image;
    height = Image.height image;
    components = Image.components image;
    tile_w = config.tile_w;
    tile_h = config.tile_h;
    levels = config.levels;
    mode = config.mode;
    bit_depth = image.Image.bit_depth;
    base_step = config.base_step;
    code_block = config.code_block;
  }

let extract_band_int plane band =
  Array.init (band.Subband.w * band.Subband.h) (fun i ->
      let x = band.Subband.x0 + (i mod band.Subband.w) in
      let y = band.Subband.y0 + (i / band.Subband.w) in
      Plane.get plane ~x ~y)

let extract_band_float m band =
  Array.init (band.Subband.w * band.Subband.h) (fun i ->
      let x = band.Subband.x0 + (i mod band.Subband.w) in
      let y = band.Subband.y0 + (i / band.Subband.w) in
      Dwt97.matrix_get m ~x ~y)

(* Each subband is partitioned into the header's code-block grid and
   every block is entropy-coded independently (EBCOT: contexts do not
   cross code-block boundaries). *)
let band_segment header band coeffs =
  let bw = band.Subband.w and bh = band.Subband.h in
  let blocks =
    List.map
      (fun (x0, y0, w, h) ->
        let block =
          Array.init (w * h) (fun i ->
              let x = x0 + (i mod w) and y = y0 + (i / w) in
              coeffs.((y * bw) + x))
        in
        let planes, passes =
          T1.encode_block_scalable ~orientation:band.Subband.orientation ~w ~h
            block
        in
        { Codestream.blk_planes = planes; blk_passes = passes })
      (Codestream.block_grid ~code_block:header.Codestream.code_block ~w:bw ~h:bh)
  in
  {
    Codestream.seg_level = band.Subband.level;
    seg_orientation = band.Subband.orientation;
    seg_w = bw;
    seg_h = bh;
    seg_blocks = blocks;
  }

(* Lossless component path: coefficient plane -> 5/3 DWT -> T1
   segments. *)
let encode_component_lossless header plane =
  Dwt53.forward_plane plane ~levels:header.Codestream.levels;
  let bands =
    Subband.decompose ~width:(Plane.width plane) ~height:(Plane.height plane)
      ~levels:header.Codestream.levels
  in
  List.map
    (fun band ->
      let coeffs =
        if band.Subband.w = 0 || band.Subband.h = 0 then [||]
        else extract_band_int plane band
      in
      band_segment header band coeffs)
    bands

(* Lossy component path: float matrix -> 9/7 DWT -> quantise -> T1. *)
let encode_component_lossy header m =
  Dwt97.forward m ~levels:header.Codestream.levels;
  let bands =
    Subband.decompose ~width:m.Dwt97.mw ~height:m.Dwt97.mh
      ~levels:header.Codestream.levels
  in
  List.map
    (fun band ->
      let coeffs =
        if band.Subband.w = 0 || band.Subband.h = 0 then [||]
        else
          let step =
            Quant.step_for ~base_step:header.Codestream.base_step
              ~levels:header.Codestream.levels ~level:band.Subband.level
              band.Subband.orientation
          in
          Quant.quantise ~step (extract_band_float m band)
      in
      band_segment header band coeffs)
    bands

let encode_tile header tile =
  let bit_depth = header.Codestream.bit_depth in
  (* Signed from here on: the samples are copied out of the tile's
     unsigned store before the DC shift. *)
  let int_planes = Array.map Image.plane_to_array tile.Tile.planes in
  Array.iter (Colour.dc_shift_forward ~bit_depth) int_planes;
  let w = Tile.width tile and h = Tile.height tile in
  let comps =
    match header.Codestream.mode with
    | Codestream.Lossless ->
      if Array.length int_planes = 3 then
        Colour.rct_forward int_planes.(0) int_planes.(1) int_planes.(2);
      Array.map
        (fun data ->
          encode_component_lossless header (Plane.of_array ~w ~h data))
        int_planes
    | Codestream.Lossy ->
      let float_planes =
        Array.map (fun data -> Array.map float_of_int data) int_planes
      in
      if Array.length float_planes = 3 then
        Colour.ict_forward float_planes.(0) float_planes.(1) float_planes.(2);
      Array.map
        (fun values ->
          encode_component_lossy header { Dwt97.mw = w; mh = h; values })
        float_planes
  in
  {
    Codestream.tile_index = tile.Tile.index;
    tile_x0 = tile.Tile.x0;
    tile_y0 = tile.Tile.y0;
    tile_w = w;
    tile_h = h;
    comps;
  }

let encode config image =
  let header = header_of_config config image in
  let tiles = Tile.split image ~tile_w:config.tile_w ~tile_h:config.tile_h in
  let segments = List.map (encode_tile header) tiles in
  Codestream.emit { Codestream.header; tiles = segments }
