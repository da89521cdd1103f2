(** Scalar dead-zone quantiser and its inverse ("IQ" in the paper).

    Used on the lossy (9/7) path only; the reversible 5/3 path passes
    integer coefficients straight to the entropy coder. The step for
    a subband shrinks with decomposition depth and grows with the
    nominal band gain, approximating the synthesis-energy weighting
    of ISO/IEC 15444-1 Annex E. Reconstruction places the value at
    the middle of the quantisation interval. *)

val step_for :
  base_step:float -> levels:int -> level:int -> Subband.orientation -> float
(** Quantisation step for one subband. [base_step] is the step of the
    finest HH band; deeper bands (closer to the LL) get exponentially
    finer steps. Raises [Invalid_argument] if [base_step <= 0]. *)

val quantise : step:float -> float array -> int array
(** Dead-zone quantisation: [q = sign(x) * floor(|x| / step)]. *)

val dequantise : step:float -> int array -> float array
(** Mid-point reconstruction: 0 maps to 0, otherwise
    [sign(q) * (|q| + 0.5) * step]. *)

val dequantise_one : step:float -> int -> float
(** One coefficient of {!dequantise}. No step validation. *)

val dequantise_band :
  step:float -> Plane.t -> Dwt97.matrix -> Subband.band -> unit
(** IQ of one band rectangle on the flat decode path: reads the
    quantised coefficients at the band's absolute position ([x0],
    [y0], [w], [h]) in the plane and writes {!dequantise_one} of each
    to the same position in the matrix — no per-coefficient call, no
    boxed intermediate array. One rectangle check per band: raises
    [Invalid_argument] if the band leaves the plane or the matrix. No
    step validation (the caller obtained [step] from {!step_for}). *)

val max_error : step:float -> float
(** Upper bound of [|dequantise (quantise x) - x|]: one full step (the
    dead zone is two steps wide, centred reconstruction). *)
