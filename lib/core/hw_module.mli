(** OSSS hardware modules.

    A module contains a fixed number of concurrent processes. On the
    VTA layer modules are wrapped by blocks that connect them to the
    global clock and reset and to OSSS Channels; here the wrapping is
    represented by the optional clock the module's EETs are rounded
    to. *)

type t

val create : Sim.Kernel.t -> name:string -> ?clock_hz:int -> unit -> t

val add_process : t -> name:string -> (unit -> unit) -> unit
(** Spawns one of the module's concurrent processes. The process set
    of a module is fixed at elaboration: adding a process after the
    simulation has advanced past time zero raises
    [Invalid_argument]. *)

val eet : t -> Sim.Sim_time.t -> (unit -> 'a) -> 'a
(** Hardware EET block: when the module has a clock, the duration is
    rounded up to a whole number of clock cycles (cycle-accurate VTA
    behaviour); unclocked modules consume the raw duration. *)
