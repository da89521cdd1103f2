(** Raster images: planes, PGM/PPM I/O, synthetic generators.

    A {!plane} stores one component in row-major order; an {!t} is a
    list of equally sized planes (1 = grey, 3 = colour). Samples are
    unsigned with a fixed bit depth (8 throughout the case study). *)

type plane = { width : int; height : int; data : int array }

type t = {
  planes : plane array;
  bit_depth : int;  (** sample precision in bits, 1..16 *)
}

val create_plane : width:int -> height:int -> plane
(** Zero-filled plane. Raises [Invalid_argument] on non-positive
    dimensions. *)

val plane_get : plane -> x:int -> y:int -> int
val plane_set : plane -> x:int -> y:int -> int -> unit

val blit_row :
  src:plane ->
  src_x:int ->
  src_y:int ->
  dst:plane ->
  dst_x:int ->
  dst_y:int ->
  len:int ->
  unit
(** Copies [len] samples of one row — a single bounds check, then an
    unchecked [int] copy loop with no write barrier; the tile
    split/assemble and region-crop hot path. Raises [Invalid_argument]
    if either row segment is out of bounds (or [len < 0]). *)

val create : width:int -> height:int -> components:int -> ?bit_depth:int -> unit -> t
val width : t -> int
val height : t -> int
val components : t -> int
val max_sample : t -> int

val equal : t -> t -> bool

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

val save_pnm : t -> string -> unit
val load_pnm : string -> t
