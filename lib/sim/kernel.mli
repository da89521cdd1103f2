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
(** Suspends the calling process for the given duration. *)

val yield : unit -> unit
(** Suspends the calling process until the next delta cycle. *)
