(** Reversible 5/3 integer wavelet transform (lossless mode,
    "IDWT53" in the paper).

    Le Gall (5,3) filter bank implemented by integer lifting with
    whole-sample symmetric extension (ISO/IEC 15444-1, Annex F).
    [inverse_plane] exactly inverts [forward_plane] for any size and
    level count — the property the lossless decoding path rests on. *)

val forward_1d : int array -> int array
(** One decomposition of a line: returns lows in [0, ceil(n/2)) and
    highs in the remainder. Length-1 input is returned unchanged. *)

val inverse_1d : int array -> int array
(** Exact inverse of {!forward_1d}. *)

val forward_plane : Plane.t -> levels:int -> unit
(** In-place multi-level 2-D decomposition in Mallat layout (rows
    then columns per level, recursing on the LL quadrant) — the
    encoder's transform. *)

val inverse_plane : Plane.t -> levels:int -> unit
(** Test oracle for {!inverse_flat}: the inverse composed from
    {!inverse_1d} one row and column at a time, allocating per line.
    Nothing in the decoder calls it. *)

val inverse_flat : Plane.t -> levels:int -> unit
(** The decoder's inverse, in place, using per-domain scratch lines
    ({!Plane.Scratch}) instead of per-line allocation. Integer
    lifting, so the coefficients are bit-identical to
    {!inverse_plane}'s. *)
