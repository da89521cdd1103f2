(** Fault-injection hook points for the physical carriers of the VTA
    layer.

    The paper's refined models route every method call over buses and
    point-to-point links, and run software on processors; this module
    lets a fault engine (see library [faults]) intercept exactly those
    carriers without the unfaulted path paying anything: each carrier
    checks one [option ref] and proceeds untouched when it is [None].

    Hooks are domain-local ([Domain.DLS]): they are meant to be
    installed around a whole simulation run on one domain and removed
    afterwards ([Faults.Engine.with_engine] does both), and a parallel
    campaign that installs one engine per [Par.Pool] worker gets fully
    isolated, race-free fault streams — each grid point owns its
    {!Faults.Rng} state. All hook functions must be deterministic for
    reproducible campaigns. *)

type channel_hook = link:string -> int32 array -> int32 array
(** Transforms the serialised words of one RMI frame transmission
    attempt (may flip bits or drop words; must not be applied twice
    to the same attempt). *)

type frame_hook = link:string -> words:int -> bool
(** Fate of one {e timing-only} payload frame of the given size:
    [true] means the attempt arrives corrupted. Used for the bulk
    tile transfers whose words are not materialised. *)

type stall_hook = proc:string -> int
(** Extra stall cycles injected into one processor EET slice. *)

val set_channel : channel_hook -> unit
val set_frame : frame_hook -> unit
val set_stall : stall_hook -> unit

val channel : unit -> channel_hook option
val frame : unit -> frame_hook option
val stall : unit -> stall_hook option

val active : unit -> bool
(** [true] if any hook is installed. *)

val clear : unit -> unit
(** Removes every hook (restores the zero-cost unfaulted path). *)
