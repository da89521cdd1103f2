(** Notification events, following SystemC [sc_event] semantics.

    A process waits on an event; a notification wakes every process
    that was waiting {e at the moment of notification}. Processes
    that start waiting between the notification and its delivery are
    not woken — they wait for the next notification. *)

type t

val create : Kernel.t -> ?name:string -> unit -> t

val notify : t -> unit
(** Delta notification: current waiters wake in the next delta cycle. *)

val wait : t -> unit
(** Suspends the calling process until the next notification.
    Process context only. *)
