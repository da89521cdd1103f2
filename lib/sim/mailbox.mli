(** Bounded blocking FIFO between processes (SystemC [sc_fifo]). *)

type 'a t

val create : Kernel.t -> ?name:string -> ?capacity:int -> unit -> 'a t
(** [capacity] defaults to 16; it must be positive. *)

val put : 'a t -> 'a -> unit
(** Blocks the calling process while the mailbox is full. *)

val get : 'a t -> 'a
(** Blocks the calling process while the mailbox is empty. *)
