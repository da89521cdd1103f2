(** Data serialisation for OSSS Channels.

    The VTA refinement cuts large user-defined data structures into
    32-bit bus words so they can be transferred over OSSS Channels.
    A ['a codec] describes both directions; the RMI layer uses
    {!word_count} for transfer timing and {!encode}/{!decode} to carry
    the actual values, so the refined model remains functionally
    identical to the Application-Layer model. Codecs compose like the
    OSSS serialisation base classes compose via inheritance. *)

type 'a codec

val word_count : 'a codec -> 'a -> int
(** Number of 32-bit words the value serialises to. *)

val encode : 'a codec -> 'a -> int32 array
val decode : 'a codec -> int32 array -> 'a
(** [decode c (encode c v) = v]. Raises [Invalid_argument] on
    malformed input (wrong length, bad tag). *)

(** {1 Base codecs} *)

val unit : unit codec
val bool : bool codec
val int32 : int32 codec

val int : int codec
(** Two words (OCaml ints are up to 63 bits). *)

val int16 : int codec
(** One word; raises on encode if the value does not fit 16 signed
    bits. Matches the [short] coefficients of the JPEG 2000 model. *)

val float : float codec
(** IEEE-754 double in two words. *)

(** {1 Combinators} *)

val pair : 'a codec -> 'b codec -> ('a * 'b) codec
val triple : 'a codec -> 'b codec -> 'c codec -> ('a * 'b * 'c) codec
val list : 'a codec -> 'a list codec
val array : 'a codec -> 'a array codec
val option : 'a codec -> 'a option codec

val int_array : int array codec
(** Length-prefixed array of one-word signed 32-bit values; raises on
    encode if an element does not fit. The workhorse for image tiles. *)
