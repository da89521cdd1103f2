(** JPEG 2000 encoder (forward chain).

    The paper only needs the decoder, but without the authors'
    proprietary coded images the decoder would have nothing real to
    chew on — so the forward chain is implemented too: DC shift →
    component transform → DWT → quantisation → Tier-1 → codestream.
    Lossless (5/3 + RCT) round-trips bit-exactly; lossy (9/7 + ICT +
    dead-zone quantiser) is tuned by [base_step]. *)

type config = {
  tile_w : int;
  tile_h : int;
  levels : int;  (** wavelet decomposition levels *)
  mode : Codestream.mode;
  base_step : float;  (** lossy quantiser base step *)
  code_block : int;  (** EBCOT code-block size (square) *)
}

val default_lossless : config
(** 128×128 tiles, 3 levels, 32×32 code blocks, 5/3 reversible path. *)

val default_lossy : config
(** 128×128 tiles, 3 levels, 9/7 path, base step 2.0. *)

val encode : config -> Image.t -> string
(** Full encode to a codestream. Raises [Invalid_argument] when
    {!header_of_config} refuses the configuration. *)

val header_of_config :
  config -> Image.t -> (Codestream.header, string * string) result
(** The header [encode] writes. [Error (field, reason)] if a
    non-positive [base_step] (field ["base step"]) or any field
    {!Codestream.check_header} refuses: sizes, levels or code-block
    size the codestream cannot carry, or an image too large for it. *)
