(** VCD export of a trace: one 8-bit wire per track holding the
    track's current span depth, so telemetry activity can be viewed
    in a waveform viewer. Track names are sanitised to VCD-safe
    identifiers. *)

val render : Event.t list -> string
val save : string -> Event.t list -> unit
val sanitize : string -> string
