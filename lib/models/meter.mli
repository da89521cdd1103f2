(** Interval meter for stage-time accounting.

    Records simulated-time intervals around stage executions and
    reports their union — the paper's "IDWT time" is the total time
    during which (any) IDWT processing was in flight, including, at
    the VTA layer, channel transfers and memory accesses belonging to
    the stage. *)

type t

val create : Sim.Kernel.t -> t

val measure : t -> (unit -> 'a) -> 'a
(** Runs the thunk in process context, recording [now] before and
    after as one interval. *)

val count : t -> int

val busy_ms : t -> float

val sum : t -> Sim.Sim_time.t
(** Plain sum of interval lengths (counts overlap twice). *)
