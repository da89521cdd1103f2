(** Binary-heap priority queue used for the simulator calendar.

    Entries are ordered by a primary integer key and, within equal
    keys, by insertion order (FIFO). This stability is what makes the
    whole simulation deterministic. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val push : 'a t -> key:int -> 'a -> unit

val min_key : 'a t -> int option
(** Smallest key currently in the queue, if any. *)

val pop : 'a t -> (int * 'a) option
(** Removes and returns the entry with the smallest key; ties are
    broken by insertion order. *)

val pop_le : 'a t -> key:int -> 'a option
(** [pop_le q ~key] pops the minimum entry only if its key is
    [<= key]. *)
