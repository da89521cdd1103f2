(** Post-compression rate shaping.

    A simplified form of EBCOT's PCRD rate allocation: given an
    already-encoded stream, keep only as many coding passes per code
    block as fit a byte budget. Passes are granted in rounds across
    all blocks (pass 1 everywhere, then pass 2, ...), which
    approximates equal-slope allocation because early passes carry
    the most significant bit-planes. The result is a valid stream of
    the same geometry that every decoder entry point accepts. *)

val shape : max_bytes:int -> string -> string
(** [shape ~max_bytes stream] returns a stream no larger than
    [max_bytes] (or the unavoidable minimum: headers plus empty
    blocks, whichever is larger). If the input already fits, it is
    returned unchanged. Raises [Invalid_argument] if [max_bytes <= 0]
    and [Failure] on a malformed stream that does not fit. *)

val minimum_bytes : string -> int
(** Size of the stream with every coding pass dropped — the floor
    {!shape} cannot go below. Raises [Failure] on a malformed
    stream. *)
