(** Consistent-hash ring over replica ids.

    The front-end balancer maps a codestream's 64-bit digest to the
    replica that {e owns} it, so repeated requests for one stream keep
    landing on the same replica and its L1 cache stays hot. Each
    member contributes [vnodes] points on the ring (hashes of the
    (replica, vnode) pair), which evens out the keyspace split; a key
    is owned by the first point at or after its own hash, wrapping at
    the top.

    The ring is immutable — {!add} and {!remove} return a new ring —
    and every operation is a pure function of the member set, so two
    fleets with equal membership route identically. The classic
    consistent-hashing property follows: adding or removing one member
    remaps only the keys whose owning arc that member's points cover,
    about [1/n] of the keyspace, and {e every} remapped key moves to
    (or from) that member — the qcheck suite asserts both
    directions. *)

type t

val create : ?vnodes:int -> int list -> t
(** [create ~vnodes members] builds the ring (duplicates ignored).
    [vnodes] defaults to 16; raises [Invalid_argument] when it is
    < 1. An empty member list is legal — the ring just owns
    nothing. *)

val members : t -> int list
(** Sorted, distinct. *)

val is_empty : t -> bool

val add : t -> int -> t
val remove : t -> int -> t

val owner : t -> int64 -> int option
(** The replica owning the key, [None] on an empty ring. *)

val successors : t -> int64 -> int list
(** Every member, ordered by ring distance from the key: the owner
    first, then the spill candidates an overloaded owner falls back
    to. Deterministic; the empty ring yields []. *)
