type slot = {
  mutable decoded : Jpeg2000.Decoder.entropy_decoded option;
  mutable wavelet : Jpeg2000.Decoder.wavelet_domain option;
  mutable spatial : Jpeg2000.Decoder.wavelet_domain option;
  mutable finished : Jpeg2000.Tile.t option;
  mutable stage_reached : int;
}

type payload = {
  header : Jpeg2000.Codestream.header;
  segments : Jpeg2000.Codestream.tile_segment array;
  reference : Jpeg2000.Image.t;
      (* what the staged decode must reproduce bit-exactly: the clean
         decode, or — under corruption — the robust decode with the
         same concealment the stages perform *)
  clean_reference : Jpeg2000.Image.t;
  robust : bool;
  concealed_blocks : int;
  concealed_tiles : int;
  slots : slot array;
  pool : Par.Pool.t;
      (* fans the per-tile stage bodies out over code blocks / planes;
         [Par.Pool.sequential] unless the caller opted in *)
}

type t = { w_mode : Profile.mode; w_tiles : int; payload : payload option }

(* -- deterministic stream corruption -------------------------------- *)

(* Bit flips confined to the entropy-coded segments: the framing
   stays parseable (whole-stream corruption is the fuzz tests'
   domain), the MQ payload and the per-block headers degrade —
   exactly the damage per-block containment is built for. Pass-byte
   flips give silently wrong coefficients (PSNR loss); a flip in a
   block's bit-plane count (probability [rate] per block, hitting a
   high bit) is structural damage the robust decoder detects and
   conceals. *)
let corrupt_segments rng ~rate segments =
  let corrupt_pass s =
    let b = Bytes.of_string s in
    for i = 0 to Bytes.length b - 1 do
      if Faults.Rng.float rng < rate then
        Bytes.set b i
          (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Faults.Rng.int rng 8)))
    done;
    Bytes.to_string b
  in
  let corrupt_block (blk : Jpeg2000.Codestream.block_segment) =
    let blk_planes =
      if Faults.Rng.float rng < rate then
        blk.Jpeg2000.Codestream.blk_planes lxor (1 lsl (5 + Faults.Rng.int rng 3))
      else blk.Jpeg2000.Codestream.blk_planes
    in
    { Jpeg2000.Codestream.blk_planes;
      blk_passes = List.map corrupt_pass blk.Jpeg2000.Codestream.blk_passes }
  in
  let corrupt_band (band : Jpeg2000.Codestream.band_segment) =
    { band with Jpeg2000.Codestream.seg_blocks = List.map corrupt_block band.Jpeg2000.Codestream.seg_blocks }
  in
  Array.map
    (fun (seg : Jpeg2000.Codestream.tile_segment) ->
      { seg with Jpeg2000.Codestream.comps = Array.map (List.map corrupt_band) seg.Jpeg2000.Codestream.comps })
    segments

(* Decode one (possibly damaged) tile the way the staged models do:
   robust entropy decode with per-block containment, whole-tile
   concealment on structural damage. Returns the tile image plus
   concealment counts. *)
let robust_tile ?(pool = Par.Pool.sequential) header seg =
  match Jpeg2000.Decoder.entropy_decode_tile_robust ~pool header seg with
  | Some (ed, concealed) ->
    ( Jpeg2000.Decoder.dequantise header ed
      |> Jpeg2000.Decoder.inverse_wavelet ~pool header
      |> Jpeg2000.Decoder.inverse_colour_and_shift header seg,
      concealed,
      0 )
  | None ->
    ( Jpeg2000.Decoder.concealed_entropy_decoded header seg
      |> Jpeg2000.Decoder.dequantise header
      |> Jpeg2000.Decoder.inverse_wavelet ~pool header
      |> Jpeg2000.Decoder.inverse_colour_and_shift header seg,
      0,
      1 )

(* The standard case-study codestream: a band-limited pseudo-natural
   image at the Table 1 geometry (128x128, 32x32 tiles, 3 levels).
   Shared by the payload below, the bench harness and the serving
   layer's synthetic stream corpus, so every consumer exercises the
   same encoder configuration. *)
let codestream ?(width = 128) ?(height = 128) ?(seed = 2008) mode =
  let image =
    Jpeg2000.Image.smooth ~width ~height ~components:Profile.components ~seed
  in
  let config =
    {
      Jpeg2000.Encoder.tile_w = 32;
      tile_h = 32;
      levels = 3;
      mode;
      base_step = 2.0;
      code_block = 16;
    }
  in
  Jpeg2000.Encoder.encode config image

let make_payload ?corrupt ~pool mode =
  let data = codestream mode in
  let stream =
    match Jpeg2000.Codestream.parse_result data with
    | Ok stream -> stream
    | Error e ->
      failwith ("Workload: encoder output: " ^ Jpeg2000.Codestream.error_message e)
  in
  let clean_reference = Jpeg2000.Decoder.decode ~pool data in
  let header = stream.Jpeg2000.Codestream.header in
  let clean_segments = Array.of_list stream.Jpeg2000.Codestream.tiles in
  let segments, reference, robust, concealed_blocks, concealed_tiles =
    match corrupt with
    | None -> (clean_segments, clean_reference, false, 0, 0)
    | Some (seed, rate) ->
      if rate < 0.0 || rate > 1.0 then
        invalid_arg "Workload.make: corruption rate out of [0,1]";
      let rng = Faults.Rng.create seed in
      let segments = corrupt_segments rng ~rate clean_segments in
      let blocks = ref 0 and tiles = ref 0 in
      let decoded =
        Array.map
          (fun seg ->
            let tile, b, t = robust_tile ~pool header seg in
            blocks := !blocks + b;
            tiles := !tiles + t;
            tile)
          segments
      in
      let reference =
        Jpeg2000.Tile.assemble
          ~width:(Jpeg2000.Image.width clean_reference)
          ~height:(Jpeg2000.Image.height clean_reference)
          ~components:(Jpeg2000.Image.components clean_reference)
          (Array.to_list decoded)
      in
      (segments, reference, true, !blocks, !tiles)
  in
  let slots =
    Array.map
      (fun _ ->
        {
          decoded = None;
          wavelet = None;
          spatial = None;
          finished = None;
          stage_reached = 0;
        })
      segments
  in
  {
    header;
    segments;
    reference;
    clean_reference;
    robust;
    concealed_blocks;
    concealed_tiles;
    slots;
    pool;
  }

let make ?(payload = true) ?corrupt ?(pool = Par.Pool.sequential) mode =
  if corrupt <> None && not payload then
    invalid_arg "Workload.make: corruption requires a payload";
  {
    w_mode = mode;
    w_tiles = Profile.tiles;
    payload = (if payload then Some (make_payload ?corrupt ~pool mode) else None);
  }

let mode t = t.w_mode
let tile_count t = t.w_tiles
let corrupted t =
  match t.payload with Some p -> p.robust | None -> false

let concealed_blocks t =
  match t.payload with Some p -> p.concealed_blocks | None -> 0

let concealed_tiles t =
  match t.payload with Some p -> p.concealed_tiles | None -> 0

let psnr_db t =
  match t.payload with
  | Some p when p.robust -> Jpeg2000.Image.psnr p.clean_reference p.reference
  | _ -> Float.infinity

let expect_stage p i expected =
  let slot = p.slots.(i) in
  if slot.stage_reached <> expected then
    failwith
      (Printf.sprintf "Workload: tile %d reached stage %d, expected %d" i
         slot.stage_reached expected);
  slot.stage_reached <- expected + 1

let stage_decode t i =
  match t.payload with
  | None -> ()
  | Some p ->
    expect_stage p i 0;
    p.slots.(i).decoded <-
      Some
        (if p.robust then
           match
             Jpeg2000.Decoder.entropy_decode_tile_robust ~pool:p.pool p.header
               p.segments.(i)
           with
           | Some (ed, _) -> ed
           | None ->
             Jpeg2000.Decoder.concealed_entropy_decoded p.header p.segments.(i)
         else
           Jpeg2000.Decoder.entropy_decode_tile ~pool:p.pool p.header
             p.segments.(i))

let stage_iq t i =
  match t.payload with
  | None -> ()
  | Some p ->
    expect_stage p i 1;
    (match p.slots.(i).decoded with
    | Some ed -> p.slots.(i).wavelet <- Some (Jpeg2000.Decoder.dequantise p.header ed)
    | None -> failwith "Workload: IQ before decode")

let stage_idwt t i =
  match t.payload with
  | None -> ()
  | Some p ->
    expect_stage p i 2;
    (match p.slots.(i).wavelet with
    | Some wd ->
      p.slots.(i).spatial <-
        Some (Jpeg2000.Decoder.inverse_wavelet ~pool:p.pool p.header wd)
    | None -> failwith "Workload: IDWT before IQ")

let stage_ict_dc t i =
  match t.payload with
  | None -> ()
  | Some p ->
    expect_stage p i 3;
    (match p.slots.(i).spatial with
    | Some wd ->
      p.slots.(i).finished <-
        Some (Jpeg2000.Decoder.inverse_colour_and_shift p.header p.segments.(i) wd)
    | None -> failwith "Workload: ICT before IDWT")

let check t =
  match t.payload with
  | None -> None
  | Some p ->
    let all_done = Array.for_all (fun s -> s.finished <> None) p.slots in
    if not all_done then Some false
    else begin
      let tiles =
        Array.to_list (Array.map (fun s -> Option.get s.finished) p.slots)
      in
      let image =
        Jpeg2000.Tile.assemble
          ~width:(Jpeg2000.Image.width p.reference)
          ~height:(Jpeg2000.Image.height p.reference)
          ~components:(Jpeg2000.Image.components p.reference)
          tiles
      in
      Some (Jpeg2000.Image.equal image p.reference)
    end
