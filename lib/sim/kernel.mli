(** Discrete-event simulation kernel.

    The kernel plays the role SystemC's scheduler plays for OSSS: it
    owns simulated time, a calendar of timed actions, and the
    delta-cycle machinery. Processes are ordinary OCaml functions run
    as fibers via effect handlers; they suspend by performing effects
    that the kernel's scheduler handles.

    Scheduling follows the SystemC evaluate/update/delta discipline:

    + {e evaluation phase}: all runnable processes/actions of the
      current delta cycle run to their next suspension point;
    + {e update phase}: pending primitive-channel updates (signals)
      commit and may trigger events;
    + if the update phase made anything runnable, a new delta cycle
      starts at the same simulated time; otherwise time advances to
      the earliest calendar entry.

    All queues are FIFO and the calendar is stable, so simulations are
    fully deterministic. *)

type t

(** {1 Delta-cycle write-write races}

    Primitive channels (see {!Signal}) report two different processes
    writing the same channel within one evaluation phase — multiple
    drivers in SystemC terms, where the committed value would depend
    on process ordering. *)

type race = {
  race_signal : string;
  race_first : string;  (** process holding the pending write *)
  race_second : string;  (** process that wrote over it *)
  race_time : Sim_time.t;
  race_delta : int;
}

type race_policy =
  | Race_ignore
  | Race_record  (** keep the race in {!races} (the default) *)
  | Race_raise  (** raise {!Delta_race} at the second write *)

exception Delta_race of race

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

val run : ?until:Sim_time.t -> t -> unit
(** Runs the simulation until no activity remains, [until] is
    reached, or {!stop} is called. May be called again to resume
    after [until]. *)

val stop : t -> unit
(** Requests the current {!run} to return at the end of the current
    delta cycle. *)

val live_processes : t -> int
(** Number of spawned processes that have not yet terminated. *)

val live_process_names : t -> string list
(** Names of the processes that have not terminated (sorted). After
    {!run} returns with no pending activity, these are the blocked
    processes — the first place to look when diagnosing a deadlock or
    a missing notification. *)

(** {1 Low-level scheduling}

    These are the primitives events, signals and channels are built
    from. Callbacks run inside the scheduler, not in a process
    context: they must not block. *)

val schedule_now : t -> (unit -> unit) -> unit
(** Appends an action to the current evaluation phase. *)

val schedule_delta : t -> (unit -> unit) -> unit
(** Schedules an action for the next delta cycle at the current time. *)

val schedule_after : t -> Sim_time.t -> (unit -> unit) -> unit
(** Schedules an action [d] after the current time. A zero delay is
    equivalent to {!schedule_delta}. *)

val at_update : t -> (unit -> unit) -> unit
(** Registers an action for the update phase of the current delta
    cycle. *)

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

val current_label : t -> string option
(** Name of the process whose slice is currently executing, [None]
    inside scheduler callbacks and outside {!run}. *)

val set_race_policy : t -> race_policy -> unit

val report_race : t -> signal:string -> first:string -> second:string -> unit
(** Applies the current policy to a conflicting-driver observation.
    Called by primitive channels; raises {!Delta_race} under
    [Race_raise]. *)

val races : t -> race list
(** Races recorded so far (oldest first) under [Race_record]. *)

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
    that takes no step.

    For [d > 0] it suspends only if something else could run before the
    caller's wake-up. It does not suspend, and advances time in place,
    when all of these hold:
    - nothing else is runnable now (the evaluation, next-delta and
      update queues are empty);
    - the running {!deliver} has no callback left, or settles;
    - no {!stop} is pending;
    - [now + d] is within the running {!run}'s [until];
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
    - the queues, the stop request and the running {!deliver}'s
      [settle] before the first step. After a step the caller is the
      only thing left to run and the delivery is settled, so the
      later steps need neither;
    - the horizon and the calendar for every step: the [i]th step
      ([i] from 1) is taken only if [now + i * d] is within
      [until] and before the first calendar entry. An entry due
      exactly at a step's end stops the advance before that step.

    Each step ends one delta cycle and counts one time advance and one
    wake-up, as a suspend and a resume would. [0] means that the first
    [wait_for d] would suspend, and nothing has changed; it is also
    the answer for [d = 0] and [steps <= 0]. The caller decides what
    to do instead (a [wait_for d] then suspends). *)

val yield : unit -> unit
(** Suspends the calling process until the next delta cycle. *)
