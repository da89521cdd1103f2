type wavelet_domain =
  | Ints of Plane.t array
  | Floats of Plane.floats array

(* The whole-image entry points raise [Failure] on a malformed
   stream; [decode_robust] is the one that reports a typed error. *)
let parse_exn data =
  match Codestream.parse_result data with
  | Ok stream -> stream
  | Error e -> failwith ("Decoder: " ^ Codestream.error_message e)

(* -- reduced-resolution view ----------------------------------------

   Keep the LL band and the bands with level > discard (they occupy
   the top-left low-resolution corner of the Mallat layout), then
   invert the remaining levels. *)
let reduced_size n d =
  let rec shrink n k = if k = 0 then n else shrink (Subband.low_size n) (k - 1) in
  shrink n d

(* The reduced view of a tile: the header and segment a decode at
   [discard] levels of resolution loss actually runs on. Identity for
   [discard = 0]. *)
let reduced_view header ~discard tile =
  if discard = 0 then (header, tile)
  else begin
    let bands =
      Subband.decompose ~width:tile.Codestream.tile_w
        ~height:tile.Codestream.tile_h ~levels:header.Codestream.levels
    in
    (* LL sits at level [levels], so a test on the level alone would
       drop it at [discard = levels]. *)
    let keep (band : Subband.band) =
      band.Subband.orientation = Subband.LL || band.Subband.level > discard
    in
    let reduced_header =
      {
        header with
        Codestream.levels = header.Codestream.levels - discard;
        tile_w = reduced_size tile.Codestream.tile_w discard;
        tile_h = reduced_size tile.Codestream.tile_h discard;
        (* Band levels shift down by [discard]; shifting the base step
           the same way keeps every kept band's quantiser step equal to
           the one the encoder used. *)
        base_step =
          header.Codestream.base_step /. Float.pow 2.0 (float_of_int discard);
      }
    in
    (* The kept bands' levels shift down by [discard] so the geometry
       matches the reduced tile. *)
    let relevel seg =
      { seg with Codestream.seg_level = seg.Codestream.seg_level - discard }
    in
    let reduced_tile =
      {
        tile with
        Codestream.tile_x0 = tile.Codestream.tile_x0 asr discard;
        tile_y0 = tile.Codestream.tile_y0 asr discard;
        tile_w = reduced_header.Codestream.tile_w;
        tile_h = reduced_header.Codestream.tile_h;
        comps =
          Array.map
            (fun segments ->
              List.filteri (fun i _ -> keep (List.nth bands i)) segments
              |> List.map relevel)
            tile.Codestream.comps;
      }
    in
    (reduced_header, reduced_tile)
  end

(* Blocks whose advertised plane count exceeds any plausible magnitude
   are refused up front on the robust paths (a corrupted count would
   otherwise cost 3 passes per bogus plane before failing). *)
let max_robust_planes = 30

(* -- the staged tile ------------------------------------------------

   A tile is flattened up front into an array of independent per-code-
   block jobs over one off-heap {!Plane} per component (Mallat layout,
   absolute band coordinates): integer planes for the 5/3 path, float
   planes for the 9/7 one, so every later stage of either path works
   in place on the planes the jobs fill. Every job decodes through T1's
   per-domain scratch state and blits only its own rectangle, so the
   jobs can run on a [Par.Pool] in any schedule: worker domains write
   disjoint rectangles of the shared planes — race-free, and
   deterministic because where a block lands depends only on the job,
   never on the schedule. A block decode that raises blits nothing,
   so its rectangle simply stays zero: exactly the concealment the
   robust path wants. Once its jobs have run, the same value is the
   entropy-decoded tile the remaining Fig. 1 stages consume. *)

type flat_job = {
  fj_comp : int;
  fj_x0 : int; (* absolute position in the component's Mallat plane *)
  fj_y0 : int;
  fj_w : int;
  fj_h : int;
  fj_planes : int;
  fj_orientation : Subband.orientation;
  fj_passes : string list;
}

type staged = {
  st_header : Codestream.header;  (* effective (reduced) header *)
  st_tile : Codestream.tile_segment;  (* effective (reduced) segment *)
  st_discard : int;
  st_bands : Subband.band array;
  st_coeffs : wavelet_domain;  (* one plane per component, tile_w x tile_h *)
  st_jobs : flat_job array;
}

type entropy_decoded = staged

(* A tile with zero coefficients and no jobs. *)
let blank_tile ~discard header tile =
  {
    st_header = header;
    st_tile = tile;
    st_discard = discard;
    st_bands =
      Subband.decompose_array ~width:tile.Codestream.tile_w
        ~height:tile.Codestream.tile_h ~levels:header.Codestream.levels;
    st_coeffs =
      (let w = tile.Codestream.tile_w and h = tile.Codestream.tile_h in
       let per_comp create =
         Array.map (fun _ -> create ~w ~h) tile.Codestream.comps
       in
       match header.Codestream.mode with
       | Codestream.Lossless -> Ints (per_comp Plane.create)
       | Codestream.Lossy -> Floats (per_comp Plane.create_floats));
    st_jobs = [||];
  }

let orientation_name = function
  | Subband.LL -> "LL"
  | Subband.HL -> "HL"
  | Subband.LH -> "LH"
  | Subband.HH -> "HH"

(* The jobs of the reduced view at [discard]. Band geometry is
   recomputed from the tile dimensions so that a corrupted stream
   cannot make us write outside a plane. Every band of every component
   is checked against that geometry before anything is sized from it:
   [fail] is called (and must raise) with the first inconsistency,
   named by tile, component and band (at its level in the stream). *)
let flat_tile_jobs ~fail ?max_passes ~discard header tile =
  let header, tile = reduced_view header ~discard tile in
  let code_block = header.Codestream.code_block in
  let bands =
    Subband.decompose_array ~width:tile.Codestream.tile_w
      ~height:tile.Codestream.tile_h ~levels:header.Codestream.levels
  in
  let nbands = Array.length bands in
  let failf where fmt =
    Printf.ksprintf
      (fun msg ->
        fail
          (Printf.sprintf "tile %d, %s: %s" tile.Codestream.tile_index where
             msg))
      fmt
  in
  Array.iteri
    (fun ci segments ->
      let n = List.length segments in
      if n <> nbands then
        failf
          (Printf.sprintf "component %d" ci)
          "band count mismatch (%d in the stream, %d in the tile)" n nbands;
      List.iteri
        (fun bi (seg : Codestream.band_segment) ->
          let band = bands.(bi) in
          let where () =
            Printf.sprintf "component %d, band %s at level %d" ci
              (orientation_name band.Subband.orientation)
              (band.Subband.level + discard)
          in
          if
            band.Subband.w <> seg.Codestream.seg_w
            || band.Subband.h <> seg.Codestream.seg_h
            || band.Subband.orientation <> seg.Codestream.seg_orientation
          then failf (where ()) "band geometry mismatch";
          let blocks = List.length seg.Codestream.seg_blocks in
          let cells =
            Codestream.block_count ~code_block ~w:band.Subband.w
              ~h:band.Subband.h
          in
          if blocks <> cells then
            failf (where ())
              "code-block count mismatch (%d in the stream, %d in the band's \
               grid)"
              blocks cells)
        segments)
    tile.Codestream.comps;
  let grids =
    Array.map
      (fun (band : Subband.band) ->
        Array.of_list
          (Codestream.block_grid ~code_block ~w:band.Subband.w
             ~h:band.Subband.h))
      bands
  in
  let jobs = ref [] in
  Array.iteri
    (fun ci segments ->
      List.iteri
        (fun bi (seg : Codestream.band_segment) ->
          let band = bands.(bi) in
          List.iteri
            (fun k (blk : Codestream.block_segment) ->
              let x0, y0, w, h = grids.(bi).(k) in
              let passes =
                match max_passes with
                | None -> blk.Codestream.blk_passes
                | Some n ->
                  List.filteri (fun i _ -> i < n) blk.Codestream.blk_passes
              in
              jobs :=
                {
                  fj_comp = ci;
                  fj_x0 = band.Subband.x0 + x0;
                  fj_y0 = band.Subband.y0 + y0;
                  fj_w = w;
                  fj_h = h;
                  fj_planes = blk.Codestream.blk_planes;
                  fj_orientation = band.Subband.orientation;
                  fj_passes = passes;
                }
                :: !jobs)
            seg.Codestream.seg_blocks)
        segments)
    tile.Codestream.comps;
  {
    (blank_tile ~discard header tile) with
    st_jobs = Array.of_list (List.rev !jobs);
  }

(* One job: scratch-decode the block on this domain and blit it into
   its component plane, as floats on the 9/7 path. *)
let decode_flat_job st j =
  let block =
    T1.decode_block_scalable_scratch ~orientation:j.fj_orientation ~w:j.fj_w
      ~h:j.fj_h ~planes:j.fj_planes j.fj_passes
  in
  match st.st_coeffs with
  | Ints ps ->
    Plane.blit_block ps.(j.fj_comp) ~x0:j.fj_x0 ~y0:j.fj_y0 ~w:j.fj_w ~h:j.fj_h
      block
  | Floats ps ->
    Plane.blit_block_floats ps.(j.fj_comp) ~x0:j.fj_x0 ~y0:j.fj_y0 ~w:j.fj_w
      ~h:j.fj_h block

(* Containment semantics of the robust path: [false] marks a block
   whose codeword no longer decodes; its rectangle stays zero. *)
let decode_flat_job_robust st j =
  if j.fj_planes > max_robust_planes then false
  else
    match decode_flat_job st j with
    | () -> true
    | exception (Failure _ | Invalid_argument _ | Exit | Not_found) -> false

let count_concealed ok =
  Array.fold_left (fun acc o -> if o then acc else acc + 1) 0 ok

let stage_tile ?max_passes ?(discard = 0) header tile =
  if discard < 0 || discard > header.Codestream.levels then
    invalid_arg "Decoder.stage_tile: discard";
  let fail msg = failwith ("Decoder: " ^ msg) in
  flat_tile_jobs ~fail ?max_passes ~discard header tile

let run_jobs ~pool st =
  Par.Pool.iter pool st.st_jobs (decode_flat_job st);
  st

(* -- the four Fig. 1 stages -----------------------------------------

   Every stage works in place on the planes the entropy stage filled:
   the lossless planes go through IQ to the IDWT as they are, the
   lossy ones are dequantised band by band, and both wavelets invert
   in place. *)

let entropy_decode_tile ?max_passes ?(pool = Par.Pool.sequential) header tile =
  run_jobs ~pool (stage_tile ?max_passes header tile)

let dequantise header ed =
  (match ed.st_coeffs with
  | Ints _ -> ()
  | Floats planes ->
    let levels = header.Codestream.levels in
    Array.iter
      (fun (band : Subband.band) ->
        if band.Subband.w > 0 && band.Subband.h > 0 then begin
          let step =
            Quant.step_for ~base_step:header.Codestream.base_step ~levels
              ~level:band.Subband.level band.Subband.orientation
          in
          Array.iter (fun p -> Quant.dequantise_band ~step p band) planes
        end)
      ed.st_bands);
  ed.st_coeffs

let inverse_wavelet ?(pool = Par.Pool.sequential) header domain =
  let levels = header.Codestream.levels in
  (match domain with
  | Ints planes ->
    Par.Pool.iter pool planes (fun p -> Dwt53.inverse_flat p ~levels)
  | Floats planes ->
    Par.Pool.iter pool planes (fun p -> Dwt97.inverse_flat p ~levels));
  domain

let inverse_colour_and_shift header tile domain =
  let bit_depth = header.Codestream.bit_depth in
  let w = tile.Codestream.tile_w and h = tile.Codestream.tile_h in
  let ncomps =
    match domain with Ints ps -> Array.length ps | Floats ps -> Array.length ps
  in
  let planes =
    Array.init ncomps (fun _ -> Image.create_plane ~width:w ~height:h)
  in
  (match domain with
  | Ints [| y; cb; cr |] ->
    Colour.rct_inverse_shift ~bit_depth y cb cr ~r:planes.(0) ~g:planes.(1)
      ~b:planes.(2)
  | Ints ps ->
    Array.iteri
      (fun c p -> Colour.shift_inverse ~bit_depth p ~into:planes.(c))
      ps
  | Floats [| y; cb; cr |] ->
    Colour.ict_inverse_shift ~bit_depth y cb cr ~r:planes.(0) ~g:planes.(1)
      ~b:planes.(2)
  | Floats ps ->
    Array.iteri
      (fun c p -> Colour.round_shift_inverse ~bit_depth p ~into:planes.(c))
      ps);
  {
    Tile.index = tile.Codestream.tile_index;
    x0 = tile.Codestream.tile_x0;
    y0 = tile.Codestream.tile_y0;
    planes;
  }

(* The composition every decode finishes a tile through. *)
let finish ?pool st =
  dequantise st.st_header st
  |> inverse_wavelet ?pool st.st_header
  |> inverse_colour_and_shift st.st_header st.st_tile

(* -- whole-tile / whole-image decode -------------------------------- *)

let decode_tile ?max_passes ?(pool = Par.Pool.sequential) header tile =
  finish ~pool (entropy_decode_tile ?max_passes ~pool header tile)

let decode_region ?(pool = Par.Pool.sequential) ~x ~y ~w ~h data =
  let stream = parse_exn data in
  let header = stream.Codestream.header in
  if w <= 0 || h <= 0 then invalid_arg "Decoder.decode_region: empty window";
  if
    x < 0 || y < 0
    || x + w > header.Codestream.width
    || y + h > header.Codestream.height
  then invalid_arg "Decoder.decode_region: window outside the image";
  let intersects tile =
    tile.Codestream.tile_x0 < x + w
    && tile.Codestream.tile_x0 + tile.Codestream.tile_w > x
    && tile.Codestream.tile_y0 < y + h
    && tile.Codestream.tile_y0 + tile.Codestream.tile_h > y
  in
  let needed = Array.of_list (List.filter intersects stream.Codestream.tiles) in
  let decoded =
    Par.Pool.map pool needed (fun seg -> decode_tile ~pool header seg)
  in
  Tile.assemble_region ~x ~y ~width:w ~height:h
    ~components:header.Codestream.components
    ~bit_depth:header.Codestream.bit_depth (Array.to_list decoded)

let decode_tile_reduced ?(pool = Par.Pool.sequential) header ~discard tile =
  finish ~pool (run_jobs ~pool (stage_tile ~discard header tile))

let decode_reduced ?(pool = Par.Pool.sequential) ~discard_levels data =
  let stream = parse_exn data in
  let header = stream.Codestream.header in
  if discard_levels < 0 || discard_levels > header.Codestream.levels then
    invalid_arg "Decoder.decode_reduced: discard_levels";
  if
    header.Codestream.tile_w mod (1 lsl discard_levels) <> 0
    || header.Codestream.tile_h mod (1 lsl discard_levels) <> 0
  then invalid_arg "Decoder.decode_reduced: tile grid not aligned";
  let tiles =
    Array.to_list
      (Par.Pool.map pool
         (Array.of_list stream.Codestream.tiles)
         (decode_tile_reduced ~pool header ~discard:discard_levels))
  in
  Tile.assemble
    ~width:(reduced_size header.Codestream.width discard_levels)
    ~height:(reduced_size header.Codestream.height discard_levels)
    ~components:header.Codestream.components
    ~bit_depth:header.Codestream.bit_depth tiles

let decode_with ?max_passes ?(pool = Par.Pool.sequential) data =
  let stream = parse_exn data in
  let header = stream.Codestream.header in
  let tiles =
    Array.to_list
      (Par.Pool.map pool
         (Array.of_list stream.Codestream.tiles)
         (decode_tile ?max_passes ~pool header))
  in
  Tile.assemble ~width:header.Codestream.width ~height:header.Codestream.height
    ~components:header.Codestream.components ~bit_depth:header.Codestream.bit_depth
    tiles

let decode ?pool data = decode_with ?pool data

let decode_progressive ?pool ~max_passes data =
  if max_passes < 0 then invalid_arg "Decoder.decode_progressive: max_passes";
  decode_with ~max_passes ?pool data

(* -- graceful degradation ------------------------------------------- *)

type report = {
  concealed_blocks : int;
  concealed_tiles : int;
  total_blocks : int;
  total_tiles : int;
}

let no_damage = function
  | { concealed_blocks = 0; concealed_tiles = 0; _ } -> true
  | _ -> false

(* Entropy decode in which each code block is a containment domain: a
   block whose MQ codeword no longer decodes is concealed (all-zero
   coefficients — mid-grey after the DC shift, the classic JPEG 2000
   error-resilience strategy) instead of poisoning the tile. Returns
   [None] when the tile's structure itself is inconsistent with the
   header geometry and the whole tile must be concealed. *)
let entropy_decode_tile_robust ?(pool = Par.Pool.sequential) header tile =
  match flat_tile_jobs ~fail:(fun _ -> raise Exit) ~discard:0 header tile with
  | exception Exit -> None
  | st ->
    let ok = Par.Pool.map pool st.st_jobs (decode_flat_job_robust st) in
    Some (st, count_concealed ok)

(* A fully concealed tile's entropy stage: every coefficient zero. *)
let concealed_entropy_decoded header tile = blank_tile ~discard:0 header tile

(* A fully concealed tile, rendered mid-grey in place. Zero
   coefficients dequantise to 0, invert to +-0 through either wavelet
   and colour-transform to 0, so the four stages over
   [concealed_entropy_decoded] leave every sample at the DC level
   2^(bit_depth-1); the tile's rectangle of every plane is filled with
   that value directly. *)
let conceal_tile header (image : Image.t) tile =
  let mid = 1 lsl (header.Codestream.bit_depth - 1) in
  let x0 = tile.Codestream.tile_x0 and y0 = tile.Codestream.tile_y0 in
  Array.iter
    (fun (p : Image.plane) ->
      (* Clipped to the plane, as [Tile.assemble] clips. *)
      let x = Stdlib.max 0 x0 and y = Stdlib.max 0 y0 in
      let width = Stdlib.min p.Image.width (x0 + tile.Codestream.tile_w) - x
      and height = Stdlib.min p.Image.height (y0 + tile.Codestream.tile_h) - y in
      if width > 0 && height > 0 then Image.fill_rect p ~x ~y ~width ~height mid)
    image.Image.planes

let tile_block_count header tile =
  let bands =
    Subband.decompose ~width:tile.Codestream.tile_w
      ~height:tile.Codestream.tile_h ~levels:header.Codestream.levels
  in
  List.fold_left
    (fun acc (band : Subband.band) ->
      acc
      + Codestream.block_count ~code_block:header.Codestream.code_block
          ~w:band.Subband.w ~h:band.Subband.h)
    0 bands
  * Array.length tile.Codestream.comps

(* The grid cells past the first [delivered] segments, each as a
   segment with the cell's index and rectangle and no entropy payload
   — exactly what [conceal_tile] needs to render mid-grey at the
   right place. *)
let missing_tiles (header : Codestream.header) ~delivered =
  let rec from k =
    match Codestream.grid_cell header k with
    | None -> []
    | Some (tile_x0, tile_y0, tile_w, tile_h) ->
      {
        Codestream.tile_index = k;
        tile_x0;
        tile_y0;
        tile_w;
        tile_h;
        comps = Array.make header.Codestream.components [];
      }
      :: from (k + 1)
  in
  from delivered

(* The robust body over an explicit tile population: [present] tiles
   decode with per-block containment, [missing] ones are concealed
   whole. *)
let decode_robust_tiles ~pool header ~present ~missing =
  let decode_one tile =
    (* (tile image or [None] when concealed whole, concealed blocks,
       concealed tiles, total blocks): per-tile results stay pure so
       the fan-out over tiles cannot race on the report counters. *)
    let total = tile_block_count header tile in
    match entropy_decode_tile_robust ~pool header tile with
    | None -> (None, 0, 1, total)
    | Some (ed, concealed) -> (
      match finish ed with
      | t -> (Some t, concealed, 0, total)
      | exception (Failure _ | Invalid_argument _) -> (None, concealed, 1, total))
  in
  let present = Array.of_list present in
  let results = Par.Pool.map pool present decode_one in
  let concealed_blocks = ref 0 and concealed_tiles = ref (List.length missing) in
  let total_blocks = ref 0 in
  let decoded =
    Array.fold_right
      (fun (tile, blocks, tiles, total) acc ->
        concealed_blocks := !concealed_blocks + blocks;
        concealed_tiles := !concealed_tiles + tiles;
        total_blocks := !total_blocks + total;
        match tile with Some t -> t :: acc | None -> acc)
      results []
  in
  let image =
    Tile.assemble ~width:header.Codestream.width
      ~height:header.Codestream.height
      ~components:header.Codestream.components
      ~bit_depth:header.Codestream.bit_depth decoded
  in
  Array.iteri
    (fun i (tile, _, _, _) -> if tile = None then conceal_tile header image present.(i))
    results;
  List.iter
    (fun tile ->
      total_blocks := !total_blocks + tile_block_count header tile;
      conceal_tile header image tile)
    missing;
  Ok
    ( image,
      {
        concealed_blocks = !concealed_blocks;
        concealed_tiles = !concealed_tiles;
        total_blocks = !total_blocks;
        total_tiles = Array.length present + List.length missing;
      } )

let decode_robust ?(pool = Par.Pool.sequential) data =
  match Codestream.parse_prefix data with
  | {
      Codestream.header = Some header;
      segments;
      error = None | Some (Codestream.Truncated _);
    } ->
    (* A truncated stream is the signature of a stalled or lossy
       ingest path: salvage every tile segment the prefix completed
       and conceal the grid cells that never arrived. Only a prefix
       too short to deliver the preamble remains an error. *)
    let present = List.map fst segments in
    decode_robust_tiles ~pool header ~present
      ~missing:(missing_tiles header ~delivered:(List.length present))
  | { error = Some e; _ } -> Error e
  | { header = None; error = None; _ } ->
    assert false (* the walk reads a header or stops with an error *)

let psnr_impact ~reference (image, report) =
  if no_damage report then Float.infinity else Image.psnr reference image

(* -- staged tile decode (serving support) --------------------------- *)

(* The serving layer's batch scheduler collects the jobs of many
   tiles across many requests into one array, runs them on a single
   [Par.Pool] batch through [staged_run] (in place, no allocation —
   disjoint rectangles keep concurrent jobs of any staged tiles
   race-free), and finishes each tile from its slice of the results
   through the same four stages as [decode_tile] /
   [decode_tile_reduced]; [finish_staged_ok] only counts the
   concealments. *)

let staged_jobs st = Array.length st.st_jobs

let staged_coded_bytes st = Codestream.segment_bytes st.st_tile

let staged_samples st =
  st.st_tile.Codestream.tile_w * st.st_tile.Codestream.tile_h
  * Array.length st.st_tile.Codestream.comps

(* Job count and coded bytes per code-block class (band orientation) —
   the profiler's T1 attribution. Pure function of the staged segment
   structure, so it agrees across reruns and pool schedules. *)
let staged_block_classes st =
  let blocks = Array.make 4 0 and bytes = Array.make 4 0 in
  Array.iter
    (fun j ->
      let i = Subband.orientation_code j.fj_orientation in
      blocks.(i) <- blocks.(i) + 1;
      bytes.(i) <-
        bytes.(i)
        + List.fold_left (fun acc p -> acc + String.length p) 0 j.fj_passes)
    st.st_jobs;
  List.filter_map
    (fun i ->
      if blocks.(i) = 0 then None
      else
        Some
          ( orientation_name (Subband.orientation_of_code i),
            blocks.(i),
            bytes.(i) ))
    [ 0; 1; 2; 3 ]

let staged_run st i = decode_flat_job_robust st st.st_jobs.(i)

let finish_staged_ok st ok =
  if Array.length ok <> Array.length st.st_jobs then
    invalid_arg "Decoder.finish_staged_ok: result count mismatch";
  (finish st, count_concealed ok)
