(** Estimated-Execution-Time annotation blocks.

    OSSS annotates behaviour with [OSSS_EET(t) { ... }] blocks: the
    enclosed code executes functionally while the simulation clock
    advances by the estimated time [t]. This module provides the
    Application-Layer form, where time is consumed directly from the
    simulated clock; at the VTA layer, {!Sw_task.eet} routes the same
    annotation through the owning processor so that tasks sharing a
    processor contend for it. *)

val consume : Sim.Sim_time.t -> unit
(** Advances the calling process by the given estimated time.
    Process context only. *)

val eet : Sim.Sim_time.t -> (unit -> 'a) -> 'a
(** [eet t f] runs [f] (its result is available immediately, like a
    combinational result latched at block exit) and consumes [t] of
    simulated time before returning. *)

val scaled : float -> Sim.Sim_time.t -> Sim.Sim_time.t
(** [scaled f t] is [t] scaled by factor [f] (rounded to
    picoseconds); used when re-targeting profiled times to a faster
    or slower implementation. *)

(** {1 Required Execution Time}

    The dual of EET: [OSSS_RET(t) { ... }] asserts a deadline — the
    enclosed block (which may itself contain EETs, blocking method
    calls and waits) must complete within the required time. OSSS
    uses RET blocks to check real-time constraints during
    Application- and VTA-layer simulation. *)

exception Deadline_violation of {
  label : string;
  required : Sim.Sim_time.t;
  actual : Sim.Sim_time.t;
}

val ret : ?label:string -> Sim.Sim_time.t -> (unit -> 'a) -> 'a
(** [ret t f] runs [f] and raises {!Deadline_violation} if more than
    [t] of simulated time elapsed during its execution. Process
    context only. *)

val ret_check : Sim.Sim_time.t -> (unit -> 'a) -> 'a * bool
(** Non-raising variant: returns the result and whether the deadline
    held. It only observes: the clock advances by [f]'s time alone. *)
