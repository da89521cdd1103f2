(** Interval + known-bits abstract domain over OCaml's 63-bit ints.

    An abstract value bounds a set of concrete integers two ways at
    once: a closed interval [\[lo, hi\]] and a known-bits pair
    ([known], [bits]) meaning every concrete value [v] satisfies
    [v land known = bits]. The two components are kept mutually
    reduced: a freshly constructed value derives bit facts from the
    interval (shared sign-prefix of [lo] and [hi]) and interval facts
    from the bits (when the sign region is known the unknown bits
    span a contiguous range).

    All transfer functions are sound over-approximations of the exact
    semantics implemented by {!Interp}: shift amounts are
    masked with [land 63], [wrap_ty] mirrors [Interp.wrap] including
    its identity at widths >= 62, and arithmetic that could exceed
    the native range saturates outward (saturation only ever widens
    the interval, so it cannot lose soundness). *)

type t = private { lo : int; hi : int; known : int; bits : int }
(** Invariants: [lo <= hi]; [bits land known = bits]; singletons have
    [known = -1]. *)

val top : t
(** Every representable int. *)

val of_const : int -> t
val of_bounds : int -> int -> t

val of_ty : Hir.ty -> t
(** Value range of a declared type as {!Interp} stores it:
    widths >= 62 are unwrapped native ints, so they map to {!top}. *)

val join : t -> t -> t
val meet : t -> t -> t option
(** [meet a b] is [None] when the intersection is provably empty. *)

val widen : t -> t -> t
(** [widen old next]: threshold widening — unstable bounds jump to
    the nearest power-of-two-ish threshold, guaranteeing a finite
    ascending chain on loop back-edges. *)

val equal : t -> t -> bool
val contains : t -> int -> bool
val is_singleton : t -> int option

val wrap_ty : Hir.ty -> t -> t
(** Abstract counterpart of [Interp.wrap]. Precise when the input
    fits, or when the input spans at most one wrap window. *)

val binop : Hir.binop -> t -> t -> t
val unop : Hir.unop -> t -> t

val assume_cmp : Hir.binop -> t -> t -> (t * t) option
(** [assume_cmp op a b] refines [a] and [b] under the assumption that
    [Bin (op, a, b)] evaluated nonzero (the comparison held). [None]
    means the assumption is unsatisfiable (the guarded code is
    unreachable). Non-comparison operators refine nothing. *)

val min_width : signed:bool -> t -> int
(** Smallest declarable width (>= 1, <= 63) whose storable range
    contains the whole abstract value. For unsigned, requires
    [lo >= 0] — callers must check. *)

val to_string : t -> string
