(** Span constructors used at instrumentation sites.

    Every function is a no-op when no {!Sink} is installed. The track
    defaults to the sink's current context — the label of the running
    simulation process, mirrored by the kernel — so instrumented
    library code rarely names a track explicitly; resource "busy"
    spans are the exception and pass [?track] with the resource name. *)

val complete :
  ts_ps:int ->
  dur_ps:int ->
  ?track:string ->
  ?cat:string ->
  ?args:(string * Event.arg) list ->
  string ->
  unit
(** One self-contained span, for sites that know the duration at
    emission time (e.g. a lock released after a known hold). *)

val instant :
  ts_ps:int ->
  ?track:string ->
  ?cat:string ->
  ?args:(string * Event.arg) list ->
  string ->
  unit

val counter : ts_ps:int -> ?track:string -> string -> int -> unit
(** One sample of a named time-series (queue depth, cache fill) —
    an [Event.Counter] on the track, with category ["counter"] and no
    arguments, exported as a Chrome counter lane. *)
