(** Notification events, following SystemC [sc_event] semantics.

    A process waits on an event; a notification wakes every process
    that was waiting {e at the moment of notification}. Processes
    that start waiting between the notification and its delivery are
    not woken — they wait for the next notification. *)

type t

val create : Kernel.t -> ?name:string -> unit -> t

val on_next : t -> (unit -> unit) -> unit
(** [on_next e f] runs [f] once, at delivery of the next notification
    of [e]. Callbacks run in scheduler context. *)

val notify : t -> unit
(** Delta notification: current waiters wake in the next delta cycle. *)

val notify_immediate : t -> unit
(** Immediate notification: current waiters wake in the current
    evaluation phase. *)

val notify_after : t -> Sim_time.t -> unit
(** Timed notification delivered after the given delay. *)

val wait : t -> unit
(** Suspends the calling process until the next notification.
    Process context only. *)

val wait_any : t list -> unit
(** Suspends until any of the listed events is notified. *)
