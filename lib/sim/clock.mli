(** Periodic clocks (SystemC [sc_clock]).

    A clock drives a boolean {!Signal} between its phases and exposes
    edge events, so clocked models can be written against the same
    machinery as everything else. The generator process only runs
    while someone may observe it: it stops at [until] (default: the
    clock never stops, which keeps the simulation alive — pass a
    horizon to {!Kernel.run} instead). *)

type t

val create :
  Kernel.t ->
  ?name:string ->
  ?duty:float ->
  ?start_high:bool ->
  ?until:Sim_time.t ->
  period:Sim_time.t ->
  unit ->
  t
(** [duty] is the high fraction of the period (default 0.5); must lie
    strictly between 0 and 1. Raises [Invalid_argument] on a zero
    period. *)

val signal : t -> bool Signal.t

val wait_posedge : t -> unit
(** Suspends the calling process until the next rising edge. *)

val wait_cycles : t -> int -> unit
(** Suspends for the given number of rising edges. *)

val edges : t -> int
(** Rising edges generated so far. *)
