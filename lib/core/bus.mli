(** Shared-bus model (IBM OPB style, as used on the paper's ML401
    platform).

    Masters compete for the bus under an arbiter; a transfer is cut
    into bursts, and each burst pays arbitration, address-phase and
    per-word data cycles. Cutting into bursts is what lets other
    masters interleave and is the source of the contention the VTA
    exploration measures (versions 6a/7a). *)

type t

val create :
  Sim.Kernel.t ->
  name:string ->
  clock_hz:int ->
  ?data_width_bits:int ->
  ?arbitration_cycles:int ->
  ?address_cycles:int ->
  ?cycles_per_word:int ->
  ?max_burst_words:int ->
  ?arbiter:Arbiter.t ->
  unit ->
  t
(** Defaults: 32-bit data, 2 arbitration cycles, 1 address cycle,
    1 cycle per beat, 16-word bursts, FCFS arbitration. A 64-bit data
    path moves two 32-bit words per beat. *)

val opb : Sim.Kernel.t -> ?clock_hz:int -> unit -> t
(** The paper's IBM On-chip Peripheral Bus: 32-bit, 2 arbitration +
    1 address cycle per burst, 16-word bursts. *)

val plb : Sim.Kernel.t -> ?clock_hz:int -> unit -> t
(** A Processor Local Bus-style alternative: 64-bit data path,
    address pipelined under the previous data phase (no dedicated
    address cycle), 32-word bursts — for the "different bus
    protocols" exploration the paper mentions. *)

val name : t -> string
val kernel : t -> Sim.Kernel.t
val clock_hz : t -> int

type master

val attach_master : t -> name:string -> master

val transfer : t -> master -> words:int -> unit
(** Blocking bus transaction of [words] 32-bit words (either
    direction — the OPB is not full-duplex). Process context only. *)

val transfer_time_unloaded : t -> words:int -> Sim.Sim_time.t
(** Duration of the same transaction on an idle bus. *)

(** {1 Statistics} *)

val contention_time : t -> Sim.Sim_time.t
(** Total time masters spent waiting for a grant. *)
