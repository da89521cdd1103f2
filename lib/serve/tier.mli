(** The shared L2 decoded-tile cache behind the engine's replicas.

    One bounded LRU of decoded tiles sits behind every replica's
    private L1 ({!Cache}): a replica that misses locally probes
    the L2 before paying for a fresh entropy decode, and publishes
    what it decodes to both tiers. Keys are the same content-addressed
    {!Cache.key}s as the L1, so a tile cached by one replica is
    a hit for every other replica serving the same codestream — the
    locality win the fleet bench measures.

    An L2 hit is not free: fetching a tile across the (simulated)
    interconnect costs [transfer_ps] on the virtual clock — more than
    an L1 hit, far less than a fresh decode — and is accounted per
    fetch. {!invalidate_stream} drops every tile of one codestream
    (all tile indices, all resolution levels), the operation a corpus
    hot-swap needs; removals are invalidations, not evictions, and the
    qcheck suite proves a stale tile can never be served past it, even
    when key hashes collide. *)

type t

val create : ?hash:(Cache.key -> int) -> capacity:int -> transfer_ps:int -> unit -> t
(** Raises [Invalid_argument] when [capacity < 1] or [transfer_ps]
    is negative. [?hash] exists so tests can force collisions, as in
    {!Lru.create}. *)

val capacity : t -> int
val length : t -> int
val transfer_ps : t -> int

val find : t -> Cache.key -> Jpeg2000.Tile.t option
(** Counts a hit or miss; a hit also counts one transfer (the tile
    crosses the interconnect to the requesting replica). *)

val add : t -> Cache.key -> Jpeg2000.Tile.t -> unit

val invalidate_stream : t -> digest:int64 -> length:int -> int
(** Drops every cached tile whose key names the codestream with this
    digest and byte length; returns how many were dropped. *)

val stats : t -> Lru.stats
val transfers : t -> int
(** Tiles fetched out of the L2 so far (= hits). *)

val transferred_ps : t -> int
(** Total simulated transfer time paid, [transfers * transfer_ps]. *)

val invalidations : t -> int
(** Entries dropped by {!invalidate_stream} so far. *)
