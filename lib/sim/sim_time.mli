(** Simulated time.

    Time is kept as an integer number of picoseconds, which gives an
    exact representation of clock periods (10 ns at 100 MHz) and a
    range of about 106 days on 63-bit integers — far beyond any model
    in this repository. *)

type t
(** An absolute instant or a duration, in picoseconds. *)

val zero : t

val of_ps : int -> t
(** [of_ps n] is [n] picoseconds. Raises [Invalid_argument] if [n < 0]. *)

val ns : int -> t
val us : int -> t
val ms : int -> t

val of_ms_float : float -> t
(** [of_ms_float x] rounds [x] milliseconds to the nearest picosecond. *)

val to_ps : t -> int
val to_float_ns : t -> float
val to_float_ms : t -> float

val add : t -> t -> t
val sub : t -> t -> t
(** [sub a b] is [a - b]. Raises [Invalid_argument] if the result
    would be negative. *)

val mul_int : t -> int -> t

val cycles : hz:int -> int -> t
(** [cycles ~hz n] is the duration of [n] clock cycles at [hz] hertz. *)

val period : hz:int -> t
(** [period ~hz] is [cycles ~hz 1]. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool

val max : t -> t -> t

val is_zero : t -> bool

val pp : Format.formatter -> t -> unit
(** Prints with the most readable unit, e.g. ["2.5 ms"]. *)

val to_string : t -> string
