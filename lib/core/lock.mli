(** Arbitrated mutual-exclusion primitive.

    The concurrency core shared by Shared Objects, buses and
    processors: a single-owner resource whose grant order is decided
    by an {!Arbiter.t}. Holders must be registered once; acquisition
    blocks the calling process until the arbiter selects it.

    {b Targeted wake.} A holder that cannot be granted parks. A
    release hands the holders parked at that moment to the next delta
    cycle, where they take turns in the order they parked, exactly as
    if the release had woken them all to re-check. At its turn, a
    holder is resumed only if the lock is free and the arbiter grants
    it then. Every other holder stays parked without being resumed:
    woken, it would only lose and park again. The resumed holder
    re-checks before it takes the lock, so a requester that arrived
    in between and wins under the arbiter's rules still wins. Grant
    order, grant instants, delta cycles and the statistics below are
    those of the broadcast wake; only [process.*.wakeups] counts fewer
    resumes.

    {b Rotations.} {!grant_run} takes a holder's back-to-back grants
    of one hold length, and while it can it takes them in whole
    arbiter rotations, without resuming anyone. A rotation starts when
    the caller owns the lock and its hold would advance in place
    ({!Sim.Kernel.in_place_limit}). The caller holds, releases and
    requests again. The arbiter then picks among the parked holders,
    on the pending list as the grants leave it. Each grantee holds in
    place, releases and requests again, until the arbiter picks the
    caller again. A rotation with nobody parked is the caller alone.
    The caller plays out every grant and release of the rotation
    itself:
    - the statistics and the arbiter's state;
    - each grantee's request instant and holds left, kept in its
      holder record;
    - under a sink, the telemetry in grant order, each arbitration
      wait on the grantee's own track;
    - the kernel's delta cycles, time advances and wake-ups
      ({!Sim.Kernel.hand_off}).

    A rotation that leaves the pending list as it found it repeats:
    the arbiter notes the caller at both ends, so the next rotation
    grants the same holders in the same order, each hold one rotation
    later. A run of such repeats is planned once and taken in one
    step, up to the first of three limits: the caller or a grantee
    would take its last hold, or a hold would end after the in-place
    limit. Its statistics and kernel counts are those of the rotations
    added up, and under a sink the telemetry of each grant still goes
    out in grant order. The eight payload-free VTA runs of Table 1
    plan 925 rotations: 386 idle runs, 135 contended runs that take
    67 673 rotations, and 11 contended rotations taken alone; the
    other 393 plans find no rotation to take.

    A rotation is taken whole or not at all. It is not taken when:
    - a hold in it would end at or after the first calendar entry;
    - a participant has a holder overhead or a zero hold;
    - a grantee is not inside a {!grant_run}, or the granted hold is
      its last one. Its last hold returns into its own code, so it
      must really be resumed;
    - the arbiter would grant the lock back to the holder that just
      released it while others wait, or would not give every parked
      holder exactly one turn (FCFS and round robin always do).

    Such grants go one by one: an {!acquire}, a [Kernel.wait_for] and
    a {!release}. Either way the grant order, instants, delta cycles,
    statistics and telemetry are those of the grants taken one by
    one, [process.*.wakeups] included. *)

type t
type holder

val create : Sim.Kernel.t -> name:string -> arbiter:Arbiter.t -> t

val name : t -> string
val kernel : t -> Sim.Kernel.t

val register : t -> name:string -> ?overhead:Sim.Sim_time.t -> unit -> holder
(** [overhead] is per-grant time consumed (while holding the lock)
    whenever this holder is granted. Default zero. *)

val acquire : t -> holder -> unit
(** Blocks the calling process until the lock is granted to this
    holder. Process context only. A holder stands for one requester:
    acquiring with a holder that already owns the lock, or that another
    process is blocked on, is a programming error and raises
    [Invalid_argument]. *)

val release : t -> holder -> unit
(** Raises [Invalid_argument] if this holder does not own the lock. *)

val with_lock : t -> holder -> (unit -> 'a) -> 'a
(** Acquire, run, release (also on exception). *)

val grant_run : t -> holder -> hold:Sim.Sim_time.t -> count:int -> unit
(** [grant_run t h ~hold ~count] is [count] times: [acquire t h], a
    [Kernel.wait_for hold] (none for a zero [hold]) and [release t h],
    with the grants taken in rotations where they may be (see
    {e Rotations} above). While [h] is parked in it, other holders'
    rotations may grant [h]'s holds, all but its last one. Process
    context only, from the process [h] stands for. *)

(** {1 Statistics} *)

val total_wait : t -> Sim.Sim_time.t
(** Cumulated time holders spent blocked in {!acquire}. *)

val total_held : t -> Sim.Sim_time.t
(** Cumulated time the lock was owned. *)
