(** MQ binary arithmetic coder (ISO/IEC 15444-1, Annex C).

    The adaptive arithmetic coder underneath EBCOT: a 47-state
    probability estimation table, conditional MPS/LPS exchange,
    byte-stuffing after [0xFF], and the standard FLUSH termination.
    Contexts carry the adaptive state (table index + current MPS) and
    are shared between the Tier-1 passes exactly as in the standard.

    The encoder and decoder here are mutually consistent by
    construction and are exercised against each other by property
    tests with random context/bit sequences. *)

val state : int -> int * int * int * int
(** [(Qe, NMPS, NLPS, SWITCH)] of one of the 47 states of the
    probability estimation table (Table C.2), read back from the flat
    per-column arrays the coder indexes on every decision. Raises
    [Invalid_argument] outside [0 .. 46]. *)

type context

val context : ?index:int -> ?mps:int -> unit -> context
(** Fresh context, default state (index 0, MPS 0). Raises
    [Invalid_argument] outside index 0..46 or mps 0..1. *)

val reset_context : context -> index:int -> mps:int -> unit
val context_mps : context -> int

(** {1 Encoding} *)

type encoder

val encoder : unit -> encoder

val encode : encoder -> context -> int -> unit
(** Codes one binary decision (0 or 1) in the given context. *)

val flush : encoder -> string
(** Terminates the codeword (SETBITS + two BYTEOUTs) and returns the
    bytes. The encoder must not be used afterwards. *)

(** {1 Decoding} *)

type decoder

val decoder : string -> decoder
(** Initialises decoding over a terminated codeword. Reading past the
    end behaves as if [0xFF] bytes followed, per the standard. *)

val decode : decoder -> context -> int
(** Decodes one binary decision. *)
