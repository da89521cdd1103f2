(** Data serialisation for OSSS Channels.

    The VTA refinement cuts large user-defined data structures into
    32-bit bus words so they can be transferred over OSSS Channels.
    A ['a codec] describes both directions; the RMI layer carries the
    actual values through {!encode}/{!decode} and times each transfer
    by the length of the encoding, so the refined model remains
    functionally identical to the Application-Layer model. *)

type 'a codec

val encode : 'a codec -> 'a -> int32 array
val decode : 'a codec -> int32 array -> 'a
(** [decode c (encode c v) = v]. Raises [Invalid_argument] on
    malformed input (wrong length, negative length prefix). *)

val int : int codec
(** Two words (OCaml ints are up to 63 bits). *)

val int_array : int array codec
(** Length-prefixed array of one-word signed 32-bit values; raises on
    encode if an element does not fit. The workhorse for image tiles. *)
