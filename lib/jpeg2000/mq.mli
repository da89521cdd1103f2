(** MQ binary arithmetic coder (ISO/IEC 15444-1, Annex C): the
    probability estimation table and the encoder.

    The adaptive arithmetic coder underneath EBCOT: a 47-state
    probability estimation table, conditional MPS/LPS exchange,
    byte-stuffing after [0xFF], and the standard FLUSH termination.

    A context is one [int], its packed state [(index lsl 1) lor mps]
    (table index 0..46, current MPS 0..1), held in an [int array] the
    coder updates in place. The Tier-1 passes share one array of 19
    contexts exactly as in the standard. The decoder is
    {!T1.mq_decode}: it lives with the passes that make nearly all its
    decisions, so that the decision compiles into them. Encoder and
    decoder are exercised against each other by property tests with
    random context/bit sequences. *)

val state : int -> int * int * int * int
(** [(Qe, NMPS, NLPS, SWITCH)] of one of the 47 states of the
    probability estimation table (Table C.2), read back from the packed
    arrays below. Raises [Invalid_argument] outside [0 .. 46]. *)

(** {1 Packed-state tables}

    Table C.2 indexed by packed state [st = (index lsl 1) lor mps],
    94 entries each. Read-only. *)

val qe : int array
(** [qe.(st)] is the state's Qe. *)

val after_mps : int array
(** [after_mps.(st)] is the packed state after coding an MPS: table
    index NMPS, same MPS. *)

val after_lps : int array
(** [after_lps.(st)] is the packed state after coding an LPS: table
    index NLPS, the MPS flipped where SWITCH is 1. *)

(** {1 Encoding} *)

type encoder

val encoder : unit -> encoder

val encode : encoder -> int array -> int -> int -> unit
(** [encode e contexts i bit] codes one binary decision (0 or 1) in
    context [contexts.(i)] and updates that context's state. *)

val flush : encoder -> string
(** Terminates the codeword (SETBITS + two BYTEOUTs) and returns the
    bytes. The encoder must not be used afterwards. *)
