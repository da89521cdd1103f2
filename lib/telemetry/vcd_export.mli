(** VCD export of a trace: one 8-bit wire per track holding the
    track's current span depth, so telemetry activity can be viewed
    in a waveform viewer alongside signal-level VCD dumps. Track
    names are sanitised to VCD-safe identifiers. *)

val render : Event.t list -> string
val save : string -> Event.t list -> unit
val sanitize : string -> string

val document :
  version:string ->
  scope:string ->
  vars:(string * int * int) list ->
  changes:(int * int * int) list ->
  string
(** The VCD writer both dumps share (this span-depth export and
    [Sim.Vcd]'s signal-level one). [vars] are [(name, width, initial
    value)] in declaration order, one scope deep; [changes] are
    [(time_ps, var index, value)], oldest first. Changes at one time
    share a [#time] line, and values are written in binary,
    two's complement within the var's width. *)
