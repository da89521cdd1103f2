(** Raster images: planes, PGM/PPM I/O, synthetic generators.

    A {!plane} stores one component in row-major order; an {!t} is a
    list of equally sized planes (1 = grey, 3 = colour). Samples are
    unsigned with a fixed bit depth, 1 to 16 bits (8 throughout the
    case study).

    {b Storage.} Every sample takes 2 bytes of one [Bytes.t], whatever
    the bit depth: one representation covers depths 1–16, at a quarter
    of the 8 bytes an [int array] slot costs. [Bytes] holds no
    pointers, so the garbage collector never scans a plane's samples,
    however many served images are alive. The store takes values in
    [0 .. 0xFFFF]; {!plane_set} rejects anything else rather than
    wrapping it. Signed wavelet coefficients never live here: they
    live in {!Plane.t}, the codec's coefficient type. *)

type plane = private {
  width : int;
  height : int;
  data : Bytes.t;
      (** [2 * width * height] bytes: sample [i] (row-major, at
          [(y * width) + x]) is the native-endian 16-bit word at byte
          offset [2 * i] *)
}
(** Read-only record: a per-sample loop in another module reads or
    writes [data] with the [%caml_bytes_get16u] / [%caml_bytes_set16u]
    primitives after one rectangle check of its own, since a call to
    {!plane_get} per sample is never inlined across a module boundary
    in this build. Only this module builds a plane, so
    [Bytes.length data = 2 * width * height] always holds. *)

type t = {
  planes : plane array;
  bit_depth : int;  (** sample precision in bits, 1..16 *)
}

val create_plane : width:int -> height:int -> plane
(** Zero-filled plane. Raises [Invalid_argument] on non-positive
    dimensions. *)

val plane_get : plane -> x:int -> y:int -> int
val plane_set : plane -> x:int -> y:int -> int -> unit
(** Bounds-checked single-sample access. Both raise [Invalid_argument]
    outside the plane; [plane_set] also raises on a value outside
    [0 .. 0xFFFF]. *)

val fill_plane : plane -> int -> unit
(** Sets every sample to the value; [Invalid_argument] outside
    [0 .. 0xFFFF]. *)

val fill_rect : plane -> x:int -> y:int -> width:int -> height:int -> int -> unit
(** [fill_rect p ~x ~y ~width ~height v] sets the samples of that
    rectangle to [v]; [Invalid_argument] outside [0 .. 0xFFFF] or if
    the rectangle is empty or leaves the plane. *)

val plane_to_array : plane -> int array
(** Row-major copy of the samples as [int]s — where a caller needs
    mutable integers to work on, such as the encoder's DC shift. *)

val blit_row :
  src:plane ->
  src_x:int ->
  src_y:int ->
  dst:plane ->
  dst_x:int ->
  dst_y:int ->
  len:int ->
  unit
(** Copies [len] samples of one row — a single bounds check, then one
    [Bytes.blit]; the tile split/assemble and region-crop hot path.
    Raises [Invalid_argument] if either row segment is out of bounds
    (or [len < 0]). *)

val create : width:int -> height:int -> components:int -> ?bit_depth:int -> unit -> t
val width : t -> int
val height : t -> int
val components : t -> int
val max_sample : t -> int

val equal : t -> t -> bool
(** Same bit depth, same plane geometry, same sample bytes. *)

val mse : t -> t -> float
(** Mean squared error across all components; raises on shape
    mismatch. *)

val psnr : t -> t -> float
(** Peak signal-to-noise ratio in dB ([infinity] for identical
    images). *)

(** {1 Synthetic images}

    Deterministic generators (a seeded LCG replaces the paper's
    photographic test material). *)

val gradient : width:int -> height:int -> components:int -> t
val checkerboard : width:int -> height:int -> components:int -> ?square:int -> unit -> t
val noise : width:int -> height:int -> components:int -> seed:int -> t
val smooth : width:int -> height:int -> components:int -> seed:int -> t
(** Band-limited pseudo-natural content: sums of low-frequency
    sinusoids plus mild noise — compresses like a photograph. *)

(** {1 PGM / PPM} *)

val to_pnm : t -> string
(** Binary PGM (1 plane) or PPM (3 planes); other plane counts are
    rejected. Only for bit depth 8. *)

val of_pnm : string -> t
(** Parses binary P5/P6 data. Raises [Failure] on malformed input. *)
