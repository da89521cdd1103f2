(** Arbitrated mutual-exclusion primitive.

    The concurrency core shared by Shared Objects, buses and
    processors: a single-owner resource whose grant order is decided
    by an {!Arbiter.t}. Holders must be registered once; acquisition
    blocks the calling process until the arbiter selects it. *)

type t
type holder

val create :
  Sim.Kernel.t ->
  name:string ->
  arbiter:Arbiter.t ->
  ?grant_overhead:Sim.Sim_time.t ->
  unit ->
  t
(** [grant_overhead] is simulated time consumed on every successful
    grant (models the arbitration logic latency); default zero. *)

val name : t -> string
val kernel : t -> Sim.Kernel.t

val register : t -> name:string -> ?overhead:Sim.Sim_time.t -> unit -> holder
(** [overhead] is additional per-grant time consumed (while holding
    the lock) whenever this holder is granted — on top of the lock's
    global [grant_overhead]. Default zero. *)

val holder_id : holder -> int

val acquire : t -> holder -> unit
(** Blocks the calling process until the lock is granted to this
    holder. Process context only. Re-entrant acquisition by the same
    holder while it already owns the lock is a programming error and
    raises [Invalid_argument]. *)

val release : t -> holder -> unit
(** Raises [Invalid_argument] if this holder does not own the lock. *)

val with_lock : t -> holder -> (unit -> 'a) -> 'a
(** Acquire, run, release (also on exception). *)

(** {1 Statistics} *)

val total_wait : t -> Sim.Sim_time.t
(** Cumulated time holders spent blocked in {!acquire}. *)

val total_held : t -> Sim.Sim_time.t
(** Cumulated time the lock was owned. *)
