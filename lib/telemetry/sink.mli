(** The telemetry sink: a domain-local collector for {!Event}s and
    {!Metrics}.

    Instrumented code throughout the stack calls the convenience hooks
    ({!emit}, {!incr}, {!observe}, {!set_gauge}, {!Span}'s
    constructors); each hook first checks whether a sink is installed,
    so a disabled sink costs exactly one load and branch per hook and
    simulations stay bit-identical with and without telemetry —
    instrumentation never consumes simulated time.

    The event buffer is unbounded by default; pass [?capacity] to keep
    the most recent [capacity] events as a ring, counting the rest in
    {!dropped}.

    The installed-sink slot lives in [Domain.DLS]: {!with_sink}
    affects only the calling domain, and a fresh domain
    (e.g. a [Par.Pool] worker) starts with no sink. Parallel
    simulations therefore never race on — or interleave events into —
    each other's sinks; a worker that wants telemetry runs its task
    under its own {!with_sink}. *)

type t

val create : ?capacity:int -> unit -> t
(** Raises [Invalid_argument] if [capacity <= 0]. *)

val active : unit -> t option
val enabled : unit -> bool

val with_sink : ?capacity:int -> (unit -> 'a) -> t * 'a
(** Runs [f] with a fresh sink installed, restoring the previous
    global sink afterwards (also on exceptions). *)

val events : t -> Event.t list
(** Collected events, oldest first, in order of emission. *)

val event_count : t -> int

val dropped : t -> int
(** Events discarded because of [?capacity]. *)

val metrics : t -> Metrics.t

val report : t -> Report.t
(** Snapshot of the metrics; when the ring has discarded events the
    snapshot gains a [telemetry.dropped_events] gauge. *)

val set_context : t -> string option -> unit
(** Sets the current default track; the kernel mirrors the label of
    the running simulation process into it. *)

val default_track : t -> string
(** The current default track, or ["main"] when outside any labelled
    process. *)

(** {2 Global hooks for instrumented code}

    All are no-ops (one branch) when no sink is installed. *)

val emit : Event.t -> unit
val incr : ?by:int -> string -> unit
val observe : ?exemplar:int * string -> string -> int -> unit
val set_gauge : string -> int -> unit
