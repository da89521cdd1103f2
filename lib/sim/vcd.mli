(** VCD (Value Change Dump) waveform export.

    Watches {!Signal} values during a simulation run and renders the
    recorded changes as a standard VCD file that any waveform viewer
    (GTKWave, etc.) can open — the workflow a SystemC user gets from
    [sc_trace]. Probes must be added before the simulation runs the
    first write of interest. *)

type t

val create : Kernel.t -> ?top:string -> unit -> t
(** [top] names the VCD scope (default ["top"]). *)

val probe : t -> name:string -> width:int -> ('a -> int) -> 'a Signal.t -> unit
(** Watches a signal. [width] is the bit width rendered in the file;
    the projection maps the signal value to the dumped integer
    (two's complement within [width]). Raises [Invalid_argument] on
    duplicate names or non-positive width. *)

val probe_int : t -> name:string -> width:int -> int Signal.t -> unit
val probe_bool : t -> name:string -> bool Signal.t -> unit

val change_count : t -> int
(** Number of recorded value changes (excluding initial values). *)

val render : t -> string
(** The complete VCD document for the changes recorded so far,
    written by {!Telemetry.Vcd_export.document}. *)

val save : t -> string -> unit
