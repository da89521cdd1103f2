(** Signals with SystemC [sc_signal] update semantics.

    Writes are buffered and committed in the update phase of the
    current delta cycle, so every reader within one evaluation phase
    sees a consistent value, and a write only becomes visible one
    delta later. A committed change notifies the signal's
    value-change event. *)

type 'a t

val create :
  Kernel.t -> ?name:string -> ?equal:('a -> 'a -> bool) -> 'a -> 'a t
(** [create k v] makes a signal with initial value [v]. [equal]
    (default structural equality) decides whether a committed write
    is a change. *)

val value : 'a t -> 'a
(** Current (committed) value. *)

val write : 'a t -> 'a -> unit
(** Schedules the value for the next update phase. The last write in
    an evaluation phase wins. If a second process writes the same
    signal within one evaluation phase, the conflict is reported to
    the kernel's race policy ({!Kernel.report_race}) — multiple
    drivers make the committed value scheduling-dependent. *)

val last_writer : 'a t -> string option
(** Process that performed the most recent write, if any. *)

val changed : 'a t -> Event.t
(** Event notified when a committed write changes the value. *)

val wait_change : 'a t -> unit
(** Suspends the calling process until the value changes. *)

val wait_value : 'a t -> ('a -> bool) -> unit
(** Suspends the calling process until the predicate holds for the
    committed value (returns immediately if it already holds). *)
