(** Software processor resource (VTA layer).

    Software Tasks are mapped N:1 onto processors. A task's EET
    blocks then consume {e processor} time: while one task executes,
    co-mapped tasks wait. Scheduling is non-preemptive and arbitrated
    (FCFS by default, as in the OSSS run-time), and a switch between
    co-mapped tasks costs no time: each VTA processor of the decoder
    models runs one task. *)

type t

val create :
  Sim.Kernel.t -> name:string -> clock_hz:int -> ?arbiter:Arbiter.t -> unit -> t

type binding
(** A task's seat on the processor. *)

val add_sw_task : t -> task_name:string -> binding
(** Registers a task on this processor (the paper's
    [add_sw_task] call on the processor object). *)

val task_count : t -> int

val execute : t -> binding -> Sim.Sim_time.t -> unit
(** Occupies the processor for the given duration on behalf of the
    bound task, blocking while other tasks hold it. Process context
    only. *)

val busy_time : t -> Sim.Sim_time.t
val wait_time : t -> Sim.Sim_time.t
