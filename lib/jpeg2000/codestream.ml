type mode = Lossless | Lossy

type header = {
  width : int;
  height : int;
  components : int;
  tile_w : int;
  tile_h : int;
  levels : int;
  mode : mode;
  bit_depth : int;
  base_step : float;
  code_block : int;
}

type block_segment = { blk_planes : int; blk_passes : string list }

type band_segment = {
  seg_level : int;
  seg_orientation : Subband.orientation;
  seg_w : int;
  seg_h : int;
  seg_blocks : block_segment list;
}

type tile_segment = {
  tile_index : int;
  tile_x0 : int;
  tile_y0 : int;
  tile_w : int;
  tile_h : int;
  comps : band_segment list array;
}

type t = { header : header; tiles : tile_segment list }

let magic = "OJ2K"
let version = 1

(* -- binary writer/reader ----------------------------------------- *)

let u8 buf v = Buffer.add_char buf (Char.chr (v land 0xFF))

let u16 buf v =
  u8 buf (v lsr 8);
  u8 buf v

let u32 buf v =
  u16 buf (v lsr 16);
  u16 buf v

let f64 buf v =
  let bits = Int64.bits_of_float v in
  for i = 7 downto 0 do
    u8 buf (Int64.to_int (Int64.shift_right_logical bits (8 * i)))
  done

type error =
  | Truncated of int
  | Bad_magic
  | Bad_version of int
  | Bad_field of string
  | Trailing of int

let error_message = function
  | Truncated off -> Printf.sprintf "truncated at byte %d" off
  | Bad_magic -> "bad magic"
  | Bad_version v -> Printf.sprintf "unsupported version %d" v
  | Bad_field what -> what
  | Trailing n -> Printf.sprintf "%d trailing bytes" n

exception Error of error

type reader = { data : string; mutable pos : int }

let fail_err e = raise (Error e)
let fail msg = fail_err (Bad_field msg)

let r8 r =
  if r.pos >= String.length r.data then fail_err (Truncated r.pos);
  let v = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  v

let r16 r =
  let hi = r8 r in
  (hi lsl 8) lor r8 r

let r32 r =
  let hi = r16 r in
  (hi lsl 16) lor r16 r

let rf64 r =
  let bits = ref 0L in
  for _ = 0 to 7 do
    bits := Int64.logor (Int64.shift_left !bits 8) (Int64.of_int (r8 r))
  done;
  Int64.float_of_bits !bits

let rbytes r n =
  if r.pos + n > String.length r.data then fail_err (Truncated r.pos);
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

(* -- emit ----------------------------------------------------------- *)

let block_grid ~code_block ~w ~h =
  if code_block <= 0 then invalid_arg "Codestream.block_grid: code_block";
  if w <= 0 || h <= 0 then []
  else begin
    let cols = (w + code_block - 1) / code_block in
    let rows = (h + code_block - 1) / code_block in
    List.concat
      (List.init rows (fun by ->
           List.init cols (fun bx ->
               let x0 = bx * code_block and y0 = by * code_block in
               ( x0,
                 y0,
                 Stdlib.min code_block (w - x0),
                 Stdlib.min code_block (h - y0) ))))
  end

let block_count ~code_block ~w ~h =
  if code_block <= 0 then invalid_arg "Codestream.block_count: code_block";
  if w <= 0 || h <= 0 then 0
  else ((w + code_block - 1) / code_block) * ((h + code_block - 1) / code_block)

let emit_band buf seg =
  u8 buf seg.seg_level;
  u8 buf (Subband.orientation_code seg.seg_orientation);
  u16 buf seg.seg_w;
  u16 buf seg.seg_h;
  u16 buf (List.length seg.seg_blocks);
  List.iter
    (fun blk ->
      u8 buf blk.blk_planes;
      u8 buf (List.length blk.blk_passes);
      List.iter
        (fun pass ->
          u32 buf (String.length pass);
          Buffer.add_string buf pass)
        blk.blk_passes)
    seg.seg_blocks

let emit_tile buf tile =
  u16 buf tile.tile_index;
  u32 buf tile.tile_x0;
  u32 buf tile.tile_y0;
  u16 buf tile.tile_w;
  u16 buf tile.tile_h;
  u8 buf (Array.length tile.comps);
  Array.iter
    (fun bands ->
      u8 buf (List.length bands);
      List.iter (emit_band buf) bands)
    tile.comps

let emit t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  u8 buf version;
  u32 buf t.header.width;
  u32 buf t.header.height;
  u8 buf t.header.components;
  u32 buf t.header.tile_w;
  u32 buf t.header.tile_h;
  u8 buf t.header.levels;
  u8 buf (match t.header.mode with Lossless -> 0 | Lossy -> 1);
  u8 buf t.header.bit_depth;
  f64 buf t.header.base_step;
  u16 buf t.header.code_block;
  u16 buf (List.length t.tiles);
  List.iter (emit_tile buf) t.tiles;
  Buffer.contents buf

(* -- parse ---------------------------------------------------------- *)

(* Hostile-input bounds: a corrupt stream must never make the parser
   (or a later decode stage sized from header fields) allocate
   unboundedly. These caps are far above anything the models emit. *)
let max_dim = 32768
let max_components = 16
let max_levels = 12
let max_code_block = 4096
let max_pixels = 1 lsl 26

let check_range what v lo hi =
  if v < lo || v > hi then
    fail (Printf.sprintf "%s %d out of range [%d, %d]" what v lo hi)

(* The bounds of every header field, in the parser's words. One source
   of truth for the parser, which refuses such a preamble, and the
   encoder, which refuses to build such a header. *)
let check_header h =
  let range field v lo hi =
    if v < lo || v > hi then
      Some (field, Printf.sprintf "%s %d out of range [%d, %d]" field v lo hi)
    else None
  in
  let failures =
    [
      range "width" h.width 1 max_dim;
      range "height" h.height 1 max_dim;
      range "components" h.components 1 max_components;
      range "tile width" h.tile_w 1 max_dim;
      range "tile height" h.tile_h 1 max_dim;
      range "levels" h.levels 0 max_levels;
      range "bit depth" h.bit_depth 1 16;
      range "code-block size" h.code_block 1 max_code_block;
      (if h.width * h.height * h.components > max_pixels then
         Some ("pixels", "image too large")
       else None);
      (if not (Float.is_finite h.base_step) || h.base_step < 0.0 then
         Some ("base step", "bad base step")
       else None);
    ]
  in
  match List.find_map Fun.id failures with
  | None -> Ok ()
  | Some failure -> Error failure

let parse_band r ~tile_w ~tile_h =
  let seg_level = r8 r in
  let seg_orientation =
    try Subband.orientation_of_code (r8 r)
    with Invalid_argument _ -> fail "bad orientation"
  in
  let seg_w = r16 r in
  let seg_h = r16 r in
  check_range "band width" seg_w 0 tile_w;
  check_range "band height" seg_h 0 tile_h;
  let nblocks = r16 r in
  let seg_blocks =
    List.init nblocks (fun _ ->
        let blk_planes = r8 r in
        let npasses = r8 r in
        let blk_passes =
          List.init npasses (fun _ ->
              let len = r32 r in
              rbytes r len)
        in
        { blk_planes; blk_passes })
  in
  { seg_level; seg_orientation; seg_w; seg_h; seg_blocks }

(* The tile grid: cell [k] in raster order, border cells clipped to
   the image. A stream carries exactly one segment per cell, segment
   [k] in cell [k]. *)
let grid_columns h = (h.width + h.tile_w - 1) / h.tile_w
let grid_count h = grid_columns h * ((h.height + h.tile_h - 1) / h.tile_h)

let cell h k =
  let cols = grid_columns h in
  let x0 = k mod cols * h.tile_w and y0 = k / cols * h.tile_h in
  ( x0,
    y0,
    Stdlib.min h.tile_w (h.width - x0),
    Stdlib.min h.tile_h (h.height - y0) )

let grid_cell h k = if k < 0 || k >= grid_count h then None else Some (cell h k)

let parse_tile r ~header ~index =
  let tile_index = r16 r in
  let tile_x0 = r32 r in
  let tile_y0 = r32 r in
  let tile_w = r16 r in
  let tile_h = r16 r in
  let x0, y0, w, h = cell header index in
  check_range "tile index" tile_index index index;
  check_range "tile x0" tile_x0 x0 x0;
  check_range "tile y0" tile_y0 y0 y0;
  check_range "tile width" tile_w w w;
  check_range "tile height" tile_h h h;
  let ncomps = r8 r in
  if ncomps <> header.components then fail "tile component count mismatch";
  let comps =
    Array.init ncomps (fun _ ->
        let nbands = r8 r in
        check_range "band count" nbands 0 ((3 * max_levels) + 1);
        List.init nbands (fun _ -> parse_band r ~tile_w ~tile_h))
  in
  { tile_index; tile_x0; tile_y0; tile_w; tile_h; comps }

(* The preamble: magic, version, header fields and the tile count —
   everything before the first tile segment. *)
let parse_preamble r =
  if rbytes r 4 <> magic then fail_err Bad_magic;
  let v = r8 r in
  if v <> version then fail_err (Bad_version v);
  let width = r32 r in
  let height = r32 r in
  let components = r8 r in
  let tile_w = r32 r in
  let tile_h = r32 r in
  let levels = r8 r in
  let mode = match r8 r with 0 -> Lossless | 1 -> Lossy | _ -> fail "bad mode" in
  let bit_depth = r8 r in
  let base_step = rf64 r in
  let code_block = r16 r in
  let header =
    {
      width; height; components; tile_w; tile_h; levels; mode; bit_depth;
      base_step; code_block;
    }
  in
  (match check_header header with
  | Ok () -> ()
  | Error (_, reason) -> fail reason);
  let ntiles = r16 r in
  let cells = grid_count header in
  check_range "tile count" ntiles cells cells;
  header

type prefix = {
  header : header option;
  segments : (tile_segment * int) list;
  error : error option;
}

(* One walk reads the framing: the preamble, one segment per grid cell,
   then the end of input. It stops at the first unit the bytes do not
   complete or that breaks a bound, keeping what it read before it. *)
let parse_prefix data =
  let r = { data; pos = 0 } in
  let header = ref None and segments = ref [] in
  let error =
    match
      if String.length data < 4 then fail_err Bad_magic;
      let h = parse_preamble r in
      header := Some h;
      for index = 0 to grid_count h - 1 do
        let tile = parse_tile r ~header:h ~index in
        segments := (tile, r.pos) :: !segments
      done;
      if r.pos <> String.length data then
        fail_err (Trailing (String.length data - r.pos))
    with
    | () -> None
    | exception Error e -> Some e
  in
  { header = !header; segments = List.rev !segments; error }

let parse_result data =
  match parse_prefix data with
  | { header = Some header; segments; error = None } ->
    Ok { header; tiles = List.map fst segments }
  | { error = Some e; _ } -> Error e
  | { header = None; error = None; _ } ->
    assert false (* the walk reads a header or stops with an error *)

let segment_bytes tile =
  Array.fold_left
    (fun acc bands ->
      List.fold_left
        (fun acc seg ->
          List.fold_left
            (fun acc blk ->
              List.fold_left
                (fun acc pass -> acc + String.length pass)
                acc blk.blk_passes)
            acc seg.seg_blocks)
        acc bands)
    0 tile.comps

let pp_mode fmt = function
  | Lossless -> Format.pp_print_string fmt "lossless"
  | Lossy -> Format.pp_print_string fmt "lossy"
