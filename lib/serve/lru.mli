(** Generic bounded LRU map with hit/miss/eviction accounting.

    The cache is {e content-addressed but collision-honest}: a lookup
    first selects the entries whose stored hash matches, then compares
    the {e full} key of each with structural equality, so two keys
    that collide under [hash] can never alias each other's values.
    [?hash] exists so tests can force every key into one hash class
    and prove that property.

    Entries sit in a hash index (stored hash -> bucket of entries)
    and on an intrusive doubly-linked recency list. A hit or a
    replacing [add] moves the entry to the front; eviction removes the
    tail. Every operation but [remove_where] is O(1) expected, and
    relinking allocates nothing. The eviction order is the one unique
    recency ticks would give — least recently touched first — so it
    is deterministic, a requirement of the serving layer's
    bit-identical reports.

    Not thread-safe; the scheduler owns it from one domain. *)

type ('k, 'v) t

type stats = {
  hits : int;
  misses : int;
  insertions : int;  (** includes replacements of an existing key *)
  evictions : int;
}

val create : ?hash:('k -> int) -> capacity:int -> unit -> ('k, 'v) t
(** [hash] defaults to [Hashtbl.hash]. Raises [Invalid_argument] if
    [capacity < 1]. *)

val capacity : ('k, 'v) t -> int
val length : ('k, 'v) t -> int

val find : ('k, 'v) t -> 'k -> 'v option
(** Full-key lookup; a hit refreshes the entry's recency and counts
    in [stats.hits], a miss in [stats.misses]. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Inserts or replaces the binding for the full key, evicting the
    least-recently-used entry when the cache is full. *)

val remove_where : ('k, 'v) t -> ('k -> bool) -> int
(** Drops every entry whose key satisfies the predicate and returns
    how many were removed. Invalidation, not pressure: the removals
    do not count as evictions and touch no hit/miss statistics. *)

val stats : ('k, 'v) t -> stats
val hit_rate : stats -> float
(** Hits over lookups, [0.] before the first lookup. *)
