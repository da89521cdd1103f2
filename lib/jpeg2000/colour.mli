(** Colour transforms and DC level shift.

    The decoder chain of the paper ends with ICT (inverse component
    transform) and DC shift. Both directions are provided because the
    repository also contains the encoder that produces the decoder's
    input:

    - {!rct_forward}/{!rct_inverse}: the Reversible Component
      Transform used with the 5/3 wavelet (lossless path) — exact
      integer round trip;
    - {!ict_forward}/{!ict_inverse}: the Irreversible Component
      Transform (floating-point RGB↔YCbCr) used with the 9/7 wavelet;
    - {!dc_shift_forward}/{!dc_shift_inverse}: centre samples around
      zero before the wavelet and restore the unsigned range after.

    The array functions operate in place on 3 equally sized planes of
    signed coefficients stored as [int array] or [float array]. The
    decoder runs only the fused stages of the last section; the
    inverse array functions stay as their test oracles. *)

val dc_shift_forward : bit_depth:int -> int array -> unit
(** Subtracts [2^(bit_depth-1)] from every sample. *)

val dc_shift_inverse : bit_depth:int -> int array -> unit
(** Adds [2^(bit_depth-1)] and clamps to [0 .. 2^bit_depth - 1].
    Test oracle: the decoder runs the fused stages below. *)

val rct_forward : int array -> int array -> int array -> unit
(** In-place RGB → (Y, Cb, Cr) reversible transform on three equally
    long arrays. *)

val rct_inverse : int array -> int array -> int array -> unit
(** In-place inverse of {!rct_forward}. Test oracle for
    {!rct_inverse_shift}. *)

val ict_forward : float array -> float array -> float array -> unit
(** In-place RGB → YCbCr irreversible transform. *)

val ict_inverse : float array -> float array -> float array -> unit
(** In-place YCbCr → RGB, the inverse of {!ict_forward}. Test oracle
    for {!ict_inverse_shift}. *)

(** {1 Fused finish}

    The decoder's last stage in one pass per sample, written straight
    into the tile's output planes: each output {!Image.plane} must
    hold exactly as many samples as the inputs, and its previous
    contents are overwritten. The inputs are not modified. Each
    function equals its oracle chain bit for bit —
    {!rct_inverse} → {!dc_shift_inverse} on the lossless path, and
    {!ict_inverse} → [int_of_float (Float.round v)] →
    {!dc_shift_inverse} on the lossy one — because it evaluates the
    same expressions in the same order. Every stored sample is
    clamped to [0 .. 2^bit_depth - 1]. All raise [Invalid_argument]
    on a size mismatch or a [bit_depth] outside [1 .. 16]. *)

val rct_inverse_shift :
  bit_depth:int ->
  Plane.t ->
  Plane.t ->
  Plane.t ->
  r:Image.plane ->
  g:Image.plane ->
  b:Image.plane ->
  unit
(** Lossless, three components: (Y, Cb, Cr) coefficients to (R, G, B)
    samples. *)

val shift_inverse : bit_depth:int -> Plane.t -> into:Image.plane -> unit
(** Lossless, one component without a colour transform: shift and
    clamp. *)

val ict_inverse_shift :
  bit_depth:int ->
  float array ->
  float array ->
  float array ->
  r:Image.plane ->
  g:Image.plane ->
  b:Image.plane ->
  unit
(** Lossy, three components: (Y, Cb, Cr) to (R, G, B) samples. *)

val round_shift_inverse :
  bit_depth:int -> float array -> into:Image.plane -> unit
(** Lossy, one component without a colour transform (a grey image):
    round to nearest, shift and clamp. *)
