(** Discrete-event simulation kernel.

    The kernel plays the role SystemC's scheduler plays for OSSS: it
    owns simulated time, a calendar of timed actions, and the
    delta-cycle machinery. Processes are ordinary OCaml functions run
    as fibers via effect handlers; they suspend by performing effects
    that the kernel's scheduler handles.

    Scheduling follows SystemC's delta-cycle discipline, without the
    update phase (processes talk through events and channels, never
    through primitive-channel signals):

    + {e evaluation phase}: all runnable processes/actions of the
      current delta cycle run to their next suspension point;
    + if that made anything runnable at the same simulated time, a
      new delta cycle starts; otherwise time advances to the earliest
      calendar entry.

    All queues are FIFO and the calendar is stable, so simulations are
    fully deterministic. *)

type t

val create : unit -> t

val now : t -> Sim_time.t
(** Current simulated time. *)

val delta_count : t -> int
(** Total number of delta cycles executed so far. *)

val time_advances : t -> int
(** Number of times simulated time moved forward during {!run}. *)

val spawn : t -> ?name:string -> (unit -> unit) -> unit
(** [spawn t body] registers a new process. It starts in the current
    evaluation phase (or at time zero if the simulation has not
    started). Exceptions escaping [body] abort the simulation and are
    re-raised from {!run}. *)

val run : t -> unit
(** Runs the simulation until no activity remains. *)

val live_processes : t -> int
(** Number of spawned processes that have not yet terminated. *)

val live_process_names : t -> string list
(** Names of the processes that have not terminated (sorted). After
    {!run} returns, these are the blocked processes — the first place
    to look when diagnosing a deadlock or a missing notification. *)

(** {1 Low-level scheduling}

    These are the primitives events and channels are built from. Callbacks run inside the scheduler, not in a process
    context: they must not block. *)

val schedule_delta : t -> (unit -> unit) -> unit
(** Schedules an action for the next delta cycle at the current time. *)

val schedule_after : t -> Sim_time.t -> (unit -> unit) -> unit
(** Schedules an action [d] after the current time. A zero delay is
    equivalent to {!schedule_delta}. *)

val deliver : t -> 'a Queue.t -> settle:(unit -> bool) -> ('a -> unit) -> unit
(** [deliver t q ~settle f] pops every element of [q] in order and runs
    [f] on it, within the current evaluation phase. This is how one
    notification resumes several processes: [f] may resume one inline.
    While elements remain, a process that [f] resumed advances time in
    place (see {!wait_for}) only if [settle ()] returns [true].
    [settle] may return [true] only after it has done what the
    remaining elements would do if that process suspended instead, and
    removed them from [q], without running any process. Otherwise it
    returns [false]. Call it from a scheduler callback, not from a
    process. *)

(** {1 Process context}

    The following must be called from inside a process body spawned
    with {!spawn}; elsewhere they raise [Effect.Unhandled]. *)

val self : unit -> t
(** The kernel running the calling process. *)

val suspend : ((unit -> unit) -> unit) -> unit
(** [suspend register] suspends the calling process. [register] is
    immediately given a [resume] thunk; scheduling [resume] (exactly
    once) resumes the process. *)

val wait_for : Sim_time.t -> unit
(** [wait_for d] lets the calling process resume [d] later. It is
    [advance_in_place (self ()) d ~steps:1], followed by a suspend when
    that takes no step. [wait_for Sim_time.zero] always suspends, until
    the next delta cycle.

    For [d > 0] it suspends only if something else could run before the
    caller's wake-up. It does not suspend, and advances time in place,
    when all of these hold:
    - nothing else is runnable now (the evaluation and next-delta
      queues are empty);
    - the running {!deliver} has no callback left, or settles;
    - no calendar entry is due at or before [now + d].

    An entry due exactly at [now + d] was queued earlier and runs
    first, so it forces a suspend. The in-place path does what the
    scheduler would have done: it ends the delta cycle, sets the time
    to [now + d], counts one time advance, and counts the caller's
    wake-up ([process.<name>.wakeups]). {!delta_count},
    {!time_advances} and every ordering are the same as with a
    suspend. *)

val advance_in_place : t -> Sim_time.t -> steps:int -> int
(** [advance_in_place t d ~steps] takes up to [steps] consecutive
    in-place advances of [d] for the calling process, which must be
    the process [t] is running, and returns how many it took. Each is
    what one [wait_for d] would do in place, and the conditions above
    are checked once:
    - the queues and the running {!deliver}'s [settle] before the
      first step. After a step the caller is the only thing left to
      run and the delivery is settled, so the later steps need
      neither;
    - the calendar for every step: the [i]th step ([i] from 1) is
      taken only if [now + i * d] is before the first calendar entry.
      An entry due exactly at a step's end stops the advance before
      that step.

    Each step ends one delta cycle and counts one time advance and one
    wake-up, as a suspend and a resume would. [0] means that the first
    [wait_for d] would suspend, and nothing has changed; it is also
    the answer for [d = 0] and [steps <= 0]. The caller decides what
    to do instead (a [wait_for d] then suspends). *)

(** {2 Hand-offs in place}

    A process that suspends while nothing else is runnable, in a delta
    cycle whose only follow-up is to resume one other process at the
    same instant, hands the simulation to that process. When that
    process then advances time in place and hands the simulation on in
    turn, the whole sequence runs no code but theirs, and its outcome
    is fixed in advance. The running process may then play it out
    itself: {!in_place_limit} tells it how far in place steps may go,
    and {!hand_off} does the scheduler's bookkeeping of each hand-off
    without resuming anyone. A lock uses this for arbiter rotations
    among its parked holders. *)

type proc
(** A spawned process, as the scheduler counts it: its label and its
    [process.<label>.wakeups] counter. *)

val running : t -> proc
(** The process whose slice is running. Process context only. *)

val proc_name : proc -> string
(** Its label, which is also its telemetry track. *)

val in_place_limit : t -> Sim_time.t -> int
(** [in_place_limit t d] is [-1] if a [wait_for d] of the running
    process would suspend, and for [d = 0]. Otherwise it settles the
    running {!deliver} and returns the last instant, in ps, at which
    an in-place step may end: the instant before the first calendar
    entry ([max_int - 1] with an empty calendar). The caller must then
    take at least that step of [d]. This is the condition {!wait_for} and
    {!advance_in_place} check; its answer holds, unchanged, for every
    later step and hand-off of the same slice until the slice
    schedules something. *)

val hand_off : t -> proc -> Sim_time.t -> count:int -> unit
(** [hand_off t p d ~count] counts what [count] hand-offs to [p] in a
    row cost the scheduler. In each, the running process suspends,
    ending the delta cycle; the next delta cycle, at the same instant,
    resumes [p] and nothing else; and [p] advances [d] in place. That
    is [2 * count] delta cycles, [count] time advances, [2 * count]
    wake-ups of [p] and [count * d] of time. These are counts, so
    the hand-offs of a sequence may be counted in any order, in runs
    of equal ones. [p] may be the running process, which then resumes
    itself. It runs nothing: the caller carries on as [p] would.
    Under a sink, [p]'s wake-ups go to its own counter, and the sink's
    context stays the running process's. Raises [Invalid_argument]
    unless [d > 0], [count > 0], nothing else is runnable, the running
    {!deliver} settles and [now + count * d] is within the limit
    {!in_place_limit} gives. *)
