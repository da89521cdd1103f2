(** Shared-bus model (IBM OPB style, as used on the paper's ML401
    platform).

    Masters compete for the bus under a first-come-first-served
    arbiter, as every bus of the case study does; a transfer is cut
    into bursts, and each burst pays the OPB's 2 arbitration cycles,
    1 address cycle and 1 cycle per 32-bit word. Cutting into bursts
    is what lets other masters interleave and is the source of the
    contention the VTA exploration measures (versions 6a/7a). *)

type t

val create :
  Sim.Kernel.t ->
  name:string ->
  clock_hz:int ->
  ?max_burst_words:int ->
  unit ->
  t
(** Default: 16-word bursts. *)

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
    anyone, up to the next calendar entry. The other bursts are an
    {!Lock.acquire}, a [Kernel.wait_for] and a {!Lock.release} each:
    among them the tail, a burst that meets the next calendar entry,
    and a master's last full burst. Both give the grants, instants,
    delta cycles, statistics and telemetry of a burst at a time. *)

val transfer_time_unloaded : t -> words:int -> Sim.Sim_time.t
(** Duration of the same transaction on an idle bus. *)
