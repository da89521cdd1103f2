(** Deterministic pseudorandom stream for fault campaigns
    (splitmix64).

    Campaign reproducibility rests on two properties: the simulation
    kernel schedules deterministically, and every random draw comes
    from this seeded generator — so the same seed replays the same
    fault pattern bit for bit. *)

type t

val create : int -> t
(** Seeded stream. Equal seeds give equal streams. *)

val next : t -> int64
val split : t -> t
(** Independent child stream (consumes one draw of the parent). *)

val float : t -> float
(** Uniform in [0, 1). *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound). [bound] must be > 0. *)

val bool : t -> bool

val mix64 : int64 -> int64
(** The stateless splitmix64 finaliser — a 64-bit mixing hash. *)

val hash64 : int64 -> int64 -> int64
(** Combine two values into one well-mixed word, without consuming
    stream state: for draws that must not depend on order. *)
