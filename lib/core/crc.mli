(** CRC-32 protection for serialised RMI frames.

    The hardened-channel mode appends one CRC word to each serialised
    payload; the receiver recomputes it before deserialising. CRC-32
    detects every single-bit error and every error burst up to 32
    bits — which covers the bit-flip and word-drop fault models of
    the [faults] library. *)

val frame : int32 array -> int32 array
(** [frame payload] is [payload] with its CRC appended — the wire
    format of a protected transfer ([length] + 1 words). *)

val check : int32 array -> int32 array option
(** [check (frame p) = Some p]; [None] when the trailing CRC does not
    match the body (corruption or a dropped/duplicated word). *)
