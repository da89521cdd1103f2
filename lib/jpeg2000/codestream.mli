(** Simplified codestream framing.

    Replaces JPEG 2000 Tier-2 (tag-tree packet headers) with
    deterministic length-prefixed segments — see DESIGN.md for the
    substitution rationale. The stream carries a main header (the
    SIZ/COD/QCD information), then one segment per tile holding, per
    component, per subband and per EBCOT code block, the bit-plane
    count and the MQ codeword produced by {!T1}. *)

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
  base_step : float;  (** quantiser base step; meaningful in lossy mode *)
  code_block : int;  (** EBCOT code-block size (square), e.g. 32 *)
}

type block_segment = {
  blk_planes : int;  (** magnitude bit-planes coded *)
  blk_passes : string list;
      (** one terminated MQ codeword per coding pass (SNR-scalable:
          decoding a prefix of the list is exact up to that pass) *)
}

type band_segment = {
  seg_level : int;
  seg_orientation : Subband.orientation;
  seg_w : int;
  seg_h : int;
  seg_blocks : block_segment list;
      (** one per code block, raster order over the band's
          code-block grid (geometry follows from the band size and
          the header's [code_block]) *)
}

type tile_segment = {
  tile_index : int;
  tile_x0 : int;
  tile_y0 : int;
  tile_w : int;
  tile_h : int;
  comps : band_segment list array;  (** one band list per component *)
}

type t = { header : header; tiles : tile_segment list }

val emit : t -> string

(** {1 Parsing}

    The reader validates every size field against hostile-input
    bounds before anything is allocated from it, so a truncated or
    bit-flipped stream yields a typed error — never an uncaught
    exception, never an unbounded allocation. *)

type error =
  | Truncated of int  (** byte offset at which input ran out *)
  | Bad_magic
  | Bad_version of int
  | Bad_field of string  (** an out-of-range or inconsistent field *)
  | Trailing of int  (** well-formed stream followed by junk bytes *)

val error_message : error -> string

type prefix = {
  header : header option;  (** [None] only with an [error] *)
  segments : (tile_segment * int) list;
      (** complete tile segments in stream order, each with the
          offset just past it *)
  error : error option;  (** [None] iff the bytes are a whole stream *)
}

val parse_prefix : string -> prefix
(** The one reader of the framing: the preamble, then one tile
    segment per cell of the tile grid, segment [k] in cell [k] (see
    {!grid_cell}), then the end of input. It stops at the first unit
    the bytes do not complete or that breaks a bound, and keeps the
    header and the segments it read before it; the error is the one
    {!parse_result} reports. A unit's parse reads no byte past its
    end, so the walk is prefix-closed: the segments of
    [String.sub data 0 n] are exactly the segments of [data] that end
    at or before [n]. Total on arbitrary input. *)

val parse_result : string -> (t, error) result
(** [parse_result (emit s) = Ok s]; total on arbitrary input. The
    whole stream as {!parse_prefix} reads it, or its error. *)

val check_header : header -> (unit, string * string) result
(** The header bounds. [Error (field, reason)] names the first field
    outside them (["tile width"], ["levels"], ["code-block size"],
    ["pixels"] for the product of the sizes, ...) and the parser's
    message, e.g. [("levels", "levels 13 out of range [0, 12]")].
    {!parse_result} and {!Encoder.header_of_config} both refuse what
    it refuses, so the encoder cannot emit a stream the parser
    rejects. *)

val grid_cell : header -> int -> (int * int * int * int) option
(** [grid_cell header k] is cell [k] of the header's tile grid in
    raster order, [(x0, y0, w, h)] with border cells clipped to the
    image, or [None] past the last cell. The parser refuses a stream
    whose tile count is not the cell count or whose segment [k] does
    not carry index [k] and cell [k]'s rectangle. *)

val segment_bytes : tile_segment -> int
(** Total entropy-coded payload of a tile (sum of all code-block
    codewords). *)

val block_grid : code_block:int -> w:int -> h:int -> (int * int * int * int) list
(** Code-block rectangles [(x0, y0, w, h)] tiling a [w]x[h] band in
    raster order; empty for a zero-area band. *)

val block_count : code_block:int -> w:int -> h:int -> int
(** [List.length (block_grid ~code_block ~w ~h)] without building the
    grid, which a hostile header can make millions of cells long. *)

val pp_mode : Format.formatter -> mode -> unit
