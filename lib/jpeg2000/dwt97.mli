(** Irreversible 9/7 floating-point wavelet transform (lossy mode,
    "IDWT97" in the paper).

    Daubechies (9,7) filter bank by four lifting steps (α, β, γ, δ)
    plus the K scaling, with whole-sample symmetric extension.
    Forward followed by inverse reconstructs up to floating-point
    rounding (verified to ~1e-9 by the property tests). *)

type matrix = { mw : int; mh : int; values : float array }
(** Row-major float plane used along the lossy path. *)

val matrix_create : w:int -> h:int -> matrix
val matrix_get : matrix -> x:int -> y:int -> float
val matrix_set : matrix -> x:int -> y:int -> float -> unit

val forward_1d : float array -> float array
(** One decomposition of a line: lows first, then highs. *)

val inverse_1d : float array -> float array

val forward : matrix -> levels:int -> unit
(** In-place multi-level 2-D decomposition, Mallat layout. *)

val inverse : matrix -> levels:int -> unit

val inverse_ip : matrix -> levels:int -> unit
(** {!inverse} staged through one per-domain scratch line
    ({!Plane.Scratch.floats}) instead of allocating per row/column.
    The floating-point operations run in exactly the order of
    {!inverse}, so the reconstruction is bit-identical — the property
    the flat decode path's cross-check rests on. *)
