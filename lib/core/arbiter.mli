(** Access arbitration policies for Shared Objects, buses and
    processors.

    An arbiter chooses, among the clients currently requesting a
    shared resource, the one to grant next. Clients are identified by
    the small integer ids the owning resource assigned at
    registration time. *)

type policy =
  | Fcfs  (** first come, first served (arrival order) *)
  | Round_robin  (** cyclic order starting after the last grant *)
  | Static_priority  (** lowest client id wins *)

type t

val create : policy -> t

val choose : t -> pending:int list -> int
(** [choose t ~pending] picks a client id from [pending] (given in
    arrival order) without changing the arbiter state, or returns -1
    iff [pending] is empty. Client ids are non-negative. It allocates
    nothing: a lock asks it on every grant test. *)

val note_grant : t -> int -> unit
(** Informs the arbiter that the given client was granted; updates
    rotating state for {!Round_robin}. *)
