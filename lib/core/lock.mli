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

    {b Idle grants.} On a free lock with no request pending or parked
    and no grant or holder overhead, {!acquire} grants at once, and a
    hold followed by {!release} wakes no one. {!idle_grants} takes a
    run of such grants in one kernel step
    ({!Sim.Kernel.advance_in_place}), with the grant order, instants,
    delta cycles, statistics and telemetry of the same grants taken one
    by one. *)

type t
type holder

val create :
  Sim.Kernel.t ->
  name:string ->
  arbiter:Arbiter.t ->
  ?grant_overhead:Sim.Sim_time.t ->
  unit ->
  t
(** [grant_overhead] is simulated time consumed on every successful
    grant (models the arbitration logic latency); default zero. *)

val name : t -> string
val kernel : t -> Sim.Kernel.t

val register : t -> name:string -> ?overhead:Sim.Sim_time.t -> unit -> holder
(** [overhead] is additional per-grant time consumed (while holding
    the lock) whenever this holder is granted — on top of the lock's
    global [grant_overhead]. Default zero. *)

val holder_id : holder -> int

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

val idle_grants : t -> holder -> hold:Sim.Sim_time.t -> count:int -> int
(** [idle_grants t h ~hold ~count] takes up to [count] back-to-back
    grants of the idle lock for [h], each held for [hold], and returns
    how many it took. Each stands for [acquire t h], a [Kernel.wait_for
    hold] that advances in place, and [release t h]. It takes none
    (returns [0], nothing changed) unless the lock is free, no request
    is pending or parked, and the lock's grant overhead and [h]'s
    overhead are zero; and it takes only as many as
    {!Sim.Kernel.advance_in_place} does. The arbiter notes the grant,
    {!total_held} grows by [hold] per grant and {!total_wait} by
    nothing. Under a telemetry sink each grant records what {!acquire}
    and {!release} record, in grant order: the grant counter, a
    [wait_ps] of 0, the [held_ps] and the busy span, the [i]th at
    [start + i * hold]; the kernel counts one wake-up per grant.
    Process context only, from the process [h] stands for. *)

(** {1 Statistics} *)

val total_wait : t -> Sim.Sim_time.t
(** Cumulated time holders spent blocked in {!acquire}. *)

val total_held : t -> Sim.Sim_time.t
(** Cumulated time the lock was owned. *)
