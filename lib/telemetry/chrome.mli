(** Chrome trace-event JSON export, loadable in Perfetto
    ([ui.perfetto.dev]) and chrome://tracing.

    The whole platform is one process (pid 1, named
    ["osss-simulation"]); each telemetry track becomes one thread,
    numbered in order of first appearance on the timeline and named
    with ["thread_name"] metadata events. Complete events become "X"
    entries with [ts]/[dur] in microseconds of simulated time,
    instants become "i" entries. *)

val to_string : Event.t list -> string

val save : string -> Event.t list -> unit
(** Writes the JSON document followed by a newline. *)
