(** Tiling.

    JPEG 2000 processes images as tiles — "small parts of the image,
    more manageable and more adapted to a pipelined computation".
    A tile carries one rectangle of every component plane. *)

type t = {
  index : int;  (** raster order index *)
  x0 : int;
  y0 : int;  (** position of the tile in the image *)
  planes : Image.plane array;  (** one rectangle per component *)
}

val split : Image.t -> tile_w:int -> tile_h:int -> t list
(** Cuts the image into tiles in raster order; border tiles are
    smaller. Raises [Invalid_argument] on non-positive tile size. *)

val assemble :
  width:int -> height:int -> components:int -> ?bit_depth:int -> t list -> Image.t
(** Rebuilds an image from tiles produced by {!split} (any order):
    {!assemble_region} at the origin. *)

val assemble_region :
  x:int ->
  y:int ->
  width:int ->
  height:int ->
  components:int ->
  ?bit_depth:int ->
  t list ->
  Image.t
(** The [width]x[height] window at ([x], [y]) of the image the tiles
    cover: each tile is clipped to the window once and copied a whole
    row at a time; tiles outside the window contribute nothing, and
    samples no tile covers stay zero. Raises [Invalid_argument] on a
    component mismatch or a non-positive window size. *)

val width : t -> int
val height : t -> int
val samples : t -> int
(** Total sample count across all components — the serialisation
    payload size of the tile. *)
