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

val parse_result : string -> (t, error) result
(** [parse_result (emit s) = Ok s]; total on arbitrary input. *)

val check_header : header -> (unit, string * string) result
(** The header bounds. [Error (field, reason)] names the first field
    outside them (["tile width"], ["levels"], ["code-block size"],
    ["pixels"] for the product of the sizes, ...) and the parser's
    message, e.g. [("levels", "levels 13 out of range [0, 12]")].
    {!parse_result} and {!Encoder.header_of_config} both refuse what
    it refuses, so the encoder cannot emit a stream the parser
    rejects. *)

(** {1 Incremental framing units}

    The building blocks of the resumable {!Stream} parser. Each
    attempts to read one framing unit of [data] starting at [pos]
    against the hostile-input bounds above and reports how far it
    got. [Unit_truncated off] means the available bytes ran out at
    offset [off] — feeding more data may complete the unit, so a
    streaming caller treats it as "need more" while a caller at
    end-of-input treats it as the definitive {!Truncated} error
    (offsets agree with {!parse_result} by construction).
    [Unit_error] is definite: no suffix can repair the prefix. *)

type 'a step =
  | Unit_ready of 'a * int  (** parsed value and the position after it *)
  | Unit_truncated of int  (** ran out of bytes at this offset *)
  | Unit_error of error  (** unrepairable framing damage *)

val read_preamble : string -> pos:int -> (header * int) step
(** Magic, version, header fields and the tile count — everything
    before the first tile segment. *)

val read_tile : header:header -> string -> pos:int -> tile_segment step
(** One tile segment, validated against [header] exactly as
    {!parse_result} does. *)

val segment_bytes : tile_segment -> int
(** Total entropy-coded payload of a tile (sum of all code-block
    codewords). *)

val block_grid : code_block:int -> w:int -> h:int -> (int * int * int * int) list
(** Code-block rectangles [(x0, y0, w, h)] tiling a [w]x[h] band in
    raster order; empty for a zero-area band. *)

val pp_mode : Format.formatter -> mode -> unit
