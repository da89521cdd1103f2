(** Irreversible 9/7 floating-point wavelet transform (lossy mode,
    "IDWT97" in the paper).

    Daubechies (9,7) filter bank by four lifting steps (α, β, γ, δ)
    plus the K scaling, with whole-sample symmetric extension.
    Forward followed by inverse reconstructs up to floating-point
    rounding (verified to ~1e-9 by the property tests). *)

type matrix = { mw : int; mh : int; values : float array }
(** Row-major float matrix: the encoder's lossy transform and the
    reference the decoder's {!inverse_flat} is tested against. *)

val matrix_create : w:int -> h:int -> matrix
val matrix_get : matrix -> x:int -> y:int -> float

val forward_1d : float array -> float array
(** One decomposition of a line: lows first, then highs. *)

val inverse_1d : float array -> float array

val forward : matrix -> levels:int -> unit
(** In-place multi-level 2-D decomposition, Mallat layout. *)

val inverse : matrix -> levels:int -> unit
(** Reference for tests: the inverse composed from {!inverse_1d} one
    row and column at a time, allocating per line. The decoder runs
    {!inverse_flat}. *)

val inverse_flat : Plane.floats -> levels:int -> unit
(** The decoder's inverse, in place on a float plane. Each level runs
    through one per-domain scratch buffer ({!Plane.Scratch.floats})
    the size of the level's [w]x[h] region: the column pass loads the
    plane's rows into it interleaved and K-scaled and lifts whole rows
    at a time, and the row pass reads each lifted row once, runs the
    four lifting steps as one pipeline and writes the row into the
    plane. Every coefficient sees the floating-point operations of
    {!inverse} in the same order, so the reconstruction is
    bit-identical. *)
