(** OSSS Software Tasks.

    A Software Task contains exactly one process. On the Application
    Layer it is an unmapped active component whose EET blocks consume
    simulated time directly; after mapping ({!map_to_processor}) the
    same EET blocks occupy the target processor, so tasks co-mapped
    onto one processor serialise. *)

type t

val create : Sim.Kernel.t -> name:string -> (t -> unit) -> t
(** [create k ~name body] declares the task. The body receives the
    task handle (for {!eet}) and is spawned immediately. *)

val map_to_processor : t -> Processor.t -> unit
(** VTA refinement: bind this task to a processor. Must happen before
    the simulation reaches the task's first EET block. Raises
    [Invalid_argument] if the task is already mapped. *)

val processor : t -> Processor.t option

val eet : t -> Sim.Sim_time.t -> (unit -> 'a) -> 'a
(** The task-level [OSSS_EET] block: runs the thunk and consumes the
    estimated time — directly when unmapped, through the bound
    processor when mapped. Must be called from the task's own
    process. *)

val consume : t -> Sim.Sim_time.t -> unit
(** [consume t d] is [eet t d (fun () -> ())]. *)

val finished : t -> bool
(** True once the task body has returned. *)
