(** Subband geometry of the Mallat decomposition.

    After [levels] 2-D wavelet decompositions of a [width]×[height]
    tile component, coefficients live in-place in the standard Mallat
    arrangement: the LL of the deepest level in the top-left corner,
    surrounded by HL/LH/HH detail bands of decreasing level. This
    module computes each band's rectangle so the entropy coder can
    address them. *)

type orientation = LL | HL | LH | HH

type band = {
  level : int;  (** decomposition level, 1 = finest; LL carries [levels] *)
  orientation : orientation;
  x0 : int;
  y0 : int;  (** top-left corner inside the Mallat layout *)
  w : int;
  h : int;  (** band dimensions; may be zero on degenerate sizes *)
}

val low_size : int -> int
(** [low_size n] = ceil(n/2): length of the low-pass half. *)

val decompose : width:int -> height:int -> levels:int -> band list
(** All bands, deepest first: [LL_L; HL_L; LH_L; HH_L; ...; HH_1].
    Zero-area bands (degenerate tile sizes) are included with
    [w = 0] or [h = 0] so band order stays structural. Raises
    [Invalid_argument] if [levels < 0] or the size is not positive. *)

val decompose_array : width:int -> height:int -> levels:int -> band array
(** {!decompose} as an array — the form the decoder's job flattening
    indexes by band number on the hot path. *)

val gain_log2 : orientation -> int
(** Log2 of the nominal subband gain used for quantisation-step
    scaling: LL 0, HL/LH 1, HH 2. *)

val orientation_code : orientation -> int
val orientation_of_code : int -> orientation
(** 0–3 wire encoding; raises [Invalid_argument] on other values. *)
