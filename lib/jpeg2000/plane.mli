(** Flat, off-heap coefficient planes: the codec's type for signed
    wavelet coefficients, from the decoder's entropy stage through its
    5/3 inverse ({!Decoder.wavelet_domain}) and under the encoder's
    5/3 transform. Unsigned output samples live in {!Image.plane}.

    A plane is one native-int Bigarray per tile component, zero-filled
    on creation. Worker domains blit decoded code-blocks into disjoint
    rectangles of a shared plane ({!blit_block} checks the rectangle
    once per block, so corrupted geometry fails loudly), and the
    in-place wavelet transforms then run over the same storage. The
    buffer lives outside the GC'd heap and is never scanned: a decode
    over flat planes performs no per-block or per-line heap allocation,
    which is what lets domains scale instead of serialising on the
    stop-the-world minor collector.

    Concurrent writes from several domains are safe exactly when their
    rectangles are disjoint — the discipline the decoder's per-code-
    block job structure guarantees. *)

type t = private {
  pw : int;  (** width *)
  ph : int;  (** height *)
  data : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
      (** the [pw * ph] coefficients, row-major *)
}
(** Read-only record: transform and IQ loops in other modules index
    [data] directly (a Bigarray access of a statically known kind
    compiles to one load or store, where a call to an accessor in this
    module would cost a call per sample — nothing is inlined across a
    module boundary in this build). Only {!create} and {!of_array}
    build a plane, so [Bigarray.Array1.dim data = pw * ph] always
    holds; bounds of a direct index are the indexing loop's
    responsibility, checked once per rectangle. *)

val create : w:int -> h:int -> t
(** Zero-filled [w]x[h] plane. Raises [Invalid_argument] if a
    dimension is not positive. *)

val width : t -> int
val height : t -> int

val get : t -> x:int -> y:int -> int
val set : t -> x:int -> y:int -> int -> unit
(** Bounds-checked single-coefficient access ([Invalid_argument]
    outside the plane). *)

val blit_block : t -> x0:int -> y0:int -> w:int -> h:int -> int array -> unit
(** Writes the [w]x[h] row-major prefix of the array into the
    rectangle at ([x0], [y0]). One bounds check per block; raises
    [Invalid_argument] if the rectangle leaves the plane or the array
    is too short. *)

val of_array : w:int -> h:int -> int array -> t
(** Raises [Invalid_argument] unless the array has length [w * h]. *)

(** Per-domain scratch buffers, keyed in [Domain.DLS].

    Each function returns this domain's buffer for that key, grown
    geometrically to at least the requested length (contents beyond
    what the caller writes are unspecified — stale data from earlier
    work items). A buffer is valid until the next request for the
    {e same} key on the {e same} domain: [ints] and [floats] may be
    held simultaneously, but no buffer may be retained across work
    items. *)
module Scratch : sig
  val ints : int -> int array
  val floats : int -> float array
end
