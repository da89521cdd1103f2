(** Virtual-Target-Architecture mapping registry.

    The VTA refinement assigns every logical component of the
    Application Model to an architectural resource:

    - Software Tasks → processors (N:1),
    - modules → hardware blocks (1:1),
    - communication links → OSSS Channels (N:1).

    This module records the mapping declaratively and checks its
    multiplicity rules; the behavioural binding itself is performed
    by {!Sw_task.map_to_processor} and by constructing the channels.
    Keeping the registry separate lets synthesis ({!Fossy}) and
    platform generation read one authoritative description. *)

type t

type channel_kind = Shared_bus | Point_to_point

type so_access = {
  sa_client : string;  (** task or module name *)
  sa_object : string;  (** Shared Object name *)
  sa_guarded : bool;  (** blocking guarded call (may wait forever) *)
}

val create : Platform.t -> t
val platform : t -> Platform.t

val map_task : t -> task:string -> processor:string -> unit
val map_module : t -> module_name:string -> block:string -> unit
val map_link : t -> link:string -> channel:string -> kind:channel_kind -> unit

val record_so_access : t -> client:string -> so:string -> guarded:bool -> unit
(** Declares that a task/module performs (guarded or plain) method
    calls on a Shared Object. One record per distinct
    (client, object, guardedness) is enough; duplicates are merged by
    {!wait_graph}. *)

val task_mappings : t -> (string * string) list
val module_mappings : t -> (string * string) list

val so_accesses : t -> so_access list

val wait_graph : t -> (string * (string * bool) list) list
(** [client -> [(shared object, guarded)]] adjacency derived from the
    recorded accesses (duplicates removed, declaration order kept).
    This is the export the analysis layer's guard-deadlock pass
    consumes: a guarded edge means the client can block on the object
    until some other client's completed call enables the guard. *)

val processors : t -> string list
(** Distinct processor targets, in first-mapping order. *)

val channels : t -> (string * channel_kind) list

val validate : t -> (unit, string list) result
(** Checks the multiplicity rules: a task is mapped at most once, a
    module exactly to one block, no two modules share a block, and a
    link is mapped at most once. Returns the list of violations. *)

val pp : Format.formatter -> t -> unit
