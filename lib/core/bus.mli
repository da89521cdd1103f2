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
    direction — the OPB is not full-duplex). Process context only.

    Each burst is one grant of the bus lock, held for the burst's
    cycles. The full bursts are one {!Lock.grant_run}, and the tail
    shorter than [max_burst_words] is another, of one grant. The run
    takes whole arbiter rotations of the masters parked in their own
    transfers, and runs of bursts on an idle bus, without resuming
    anyone, up to the next calendar entry or [run ~until]. The other
    bursts are an {!Lock.acquire}, a [Kernel.wait_for] and a
    {!Lock.release} each: among them the tail, a burst that meets the
    next calendar entry or the horizon, and a master's last full
    burst. Both give the grants, instants, delta cycles, statistics
    and telemetry of a burst at a time. *)

val transfer_time_unloaded : t -> words:int -> Sim.Sim_time.t
(** Duration of the same transaction on an idle bus. *)
