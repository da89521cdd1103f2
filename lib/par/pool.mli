(** A fixed-size Domain pool with a deterministic, work-stealing
    data-parallel [map].

    The pool exists to turn the {e modelled} concurrency of the decoder
    — independent EBCOT code-blocks, per-component IDWT, independent
    campaign grid points — into real OCaml 5 parallelism without
    changing a single output bit.

    {2 The work-stealing contract}

    A {!map} (or {!iter}) cuts its [n] items into fixed-size chunks of
    contiguous indices — [?chunk] items each, default
    [max 1 (n / (4 * parallelism))] — and publishes one atomic cursor
    over the chunk sequence. Every participating domain (the spawned
    workers plus the calling domain) repeatedly claims the next
    unclaimed chunk and runs it, so a domain stuck on one expensive
    chunk no longer strands the rest of the batch: idle domains simply
    steal the remaining chunks. {e Which} domain runs a chunk is
    scheduling-dependent; {e what} a chunk computes, and where its
    results land, is a pure function of the chunk index — results are
    written by index and merged in index order — so the merged array is
    identical to [Array.map] on every schedule.

    Telemetry (on the calling domain's sink): [par.map.calls],
    [par.map.jobs], [par.map.chunks] and the [par.map.chunk_sizes]
    histogram are pure functions of the batch shape and therefore
    deterministic; [par.map.steals] counts the chunks claimed by
    spawned workers (rather than the caller) and is the one
    scheduling-dependent counter — nothing byte-diffed derives from it.

    Every parallel entry point in the repository takes an optional
    [?pool] defaulting to {!sequential}, a pool value that spawns
    nothing and allocates nothing beyond the result array — the
    single-threaded behaviour (and cost) of the code before this layer
    existed.

    Worker domains hold no simulation state: the cross-cutting layers
    ({!Telemetry.Sink}, [Osss.Fault_hooks]) keep their mutable slots in
    [Domain.DLS], so a sink or fault engine installed inside one task
    is invisible to every other domain. *)

type t

val sequential : t
(** Runs every {!map} as a plain [Array.map] on the calling domain.
    No domains are spawned; {!shutdown} is a no-op. *)

val of_jobs : int -> t
(** [of_jobs n] is {!sequential} for [n = 1] and a pool of [n - 1]
    workers otherwise — the calling domain claims chunks alongside the
    workers during {!map}, so [--jobs n] occupies [n] domains total.
    Raises [Invalid_argument] for [n < 1]: a zero or negative job
    count is a caller bug, not a request for sequential mode. *)

val parallelism : t -> int
(** Number of domains that execute a {!map}: the workers plus the
    calling domain, or [1] for {!sequential}. *)

val map : ?chunk:int -> t -> 'a array -> ('a -> 'b) -> 'b array
(** [map pool arr f] = [Array.map f arr], computed under the
    work-stealing contract above. [?chunk] overrides the chunk size
    (items per steal; raises [Invalid_argument] if [< 1]): pass [1]
    when the per-item cost is large and wildly uneven (e.g. whole
    model simulations), leave the default for fine-grained items. If
    any [f] raises, one of the raised exceptions is re-raised in the
    caller after all chunks finish. Calls from inside a pool task
    (nested parallelism) degrade to sequential [Array.map] rather
    than deadlock the queue. *)

val iter : ?chunk:int -> t -> 'a array -> ('a -> unit) -> unit
(** [map] for effects, without allocating a result array (e.g.
    in-place per-component IDWT, entropy decode into flat planes).
    The items must be independent: no two may touch the same mutable
    state. *)

val shutdown : t -> unit
(** Joins the worker domains. Idempotent; {!map} after [shutdown]
    raises [Invalid_argument]. *)

val with_jobs : int -> (t -> 'a) -> 'a
(** {!of_jobs} with the same lifetime guarantee. *)
