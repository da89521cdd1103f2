(** The sharded decode fleet: runs the one engine
    ({!Serve.Service.Engine}) with N replicas behind a consistent-hash
    balancer, a shared L2 tile cache, and an autoscaler — all on one
    virtual clock.

    A fleet serves the same seeded open-loop workloads as a single
    service, but across [replicas] independent decode replicas. The
    front end routes each arriving request to the replica owning its
    codestream's digest on the {!Ring}; ownership keeps a stream's
    traffic on one replica so its private L1 stays hot, and the
    shared {!Tier} L2 behind the L1s turns one replica's decode into
    every replica's (priced) cache hit. Admission mirrors the single
    service: a saturated owner spills to ring successors (when
    [spill] is on), the [Degrade] policy rewrites requests above the
    owner's high-water mark to a lower resolution, and a fleet-wide
    reject/drop fires only when no replica can take the request — the
    front end sheds load {e before} any replica queue overflows.

    With [min < max] the autoscaler watches queue depth and the
    windowed SLO-miss rate every [interval]: scale-up starts a new
    replica which pays [warmup] on the simulated clock before joining
    the ring (cold L1); scale-down drains the emptiest replica —
    removed from the ring at the decision, deactivated once its queue
    empties.

    Everything is deterministic. Arrivals are pre-drawn by
    {!Serve.Service.open_arrivals}; the event loop advances the clock
    to the earliest of (next arrival, each replica's next dispatch,
    warm-up completions, autoscaler evaluations) and breaks every tie
    in replica-id order; per-replica dispatch jitter is a pure hash of
    (fleet seed, replica, batch index); and the {!Par.Pool} only
    accelerates real entropy decodes (bit-identical by contract). A
    {!report} — every percentile, every counter, the pixels digest —
    is therefore byte-identical across reruns and across any
    [--jobs]. *)

module Ring = Serve.Ring
(** The consistent-hash balancer ring (re-exported for tests and
    tooling). *)

module Tier = Serve.Tier
(** The shared L2 tile cache (re-exported likewise). *)

type config = {
  replicas : int;  (** replicas active at start (>= 1) *)
  min_replicas : int;  (** autoscaler floor, [1 <= min <= replicas] *)
  max_replicas : int;  (** autoscaler ceiling, [>= replicas] *)
  vnodes : int;  (** ring points per replica (>= 1) *)
  l2_capacity : int;  (** shared L2 tiles; 0 disables the tier *)
  l2_transfer_ps : int;  (** simulated cost per tile fetched from L2 *)
  spill : bool;  (** saturated owner spills to ring successors *)
  up_frac : float;
      (** mean queue-depth fraction at or above which the autoscaler
          adds a replica *)
  down_frac : float;  (** depth fraction at or below which it drains one *)
  slo_up : float;
      (** windowed SLO-miss rate at or above which it adds a replica *)
  interval_ps : int;  (** autoscaler evaluation period *)
  warmup_ps : int;  (** simulated boot time before a new replica joins *)
  seed : int;  (** fleet seed: per-replica dispatch jitter *)
}

val default_config : config
(** 4 replicas, no autoscaling (min = max = 4), 16 vnodes, 256-tile
    L2 at 20 us per transfer, spill on, up 0.75 / down 0.15 /
    slo 0.5, 5 ms interval, 20 ms warmup, seed 0. *)

val parse_config : string -> (config, string) result
(** [key=value] spec string over
    [replicas,min,max,vnodes,l2,l2_us,spill,up,down,slo,interval,warmup,seed]
    ([l2_us] in microseconds; [interval]/[warmup] in milliseconds;
    [spill] 0 or 1; [min]/[max] default to [replicas], which disables
    autoscaling). Unknown keys, malformed values and inconsistent
    bounds fail with a one-line message naming the offending value. *)

val config_to_string : config -> string
(** Canonical round-trippable form, embedded in reports. *)

type t

val create : ?config:config -> ?service:Serve.Service.config -> string array -> t
(** Registers the codestream corpus once (shared by every replica;
    replica state itself lives per {!run}). [service] configures each
    replica's queue, policy, L1 cache and batching and defaults to
    {!Serve.Service.default_config}. Raises [Invalid_argument] on an
    empty corpus, a malformed codestream, an out-of-range config, or
    a [service] with [ingest] set — the fleet serves whole streams. *)

val service : t -> Serve.Service.t
(** The underlying corpus/service view the replicas share. *)

type tier_stats = {
  hits : int;
  misses : int;
  insertions : int;
  evictions : int;
  hit_rate : float;
}

type l2_stats = {
  l2_capacity : int;
  l2_tier : tier_stats;
  l2_transfers : int;  (** tiles fetched out of the shared cache *)
  l2_transfer_ms : float;  (** simulated interconnect time paid *)
  l2_invalidations : int;
}

type replica_stat = Serve.Service.Engine.replica_stat = {
  rs_id : int;
  rs_served : int;
  rs_batches : int;
  rs_busy_ms : float;  (** simulated time spent serving batches *)
}

type report = {
  fleet : string;  (** canonical {!config_to_string} *)
  workload : string;
  streams : int;
  policy : string;
  queue_capacity : int;  (** per replica *)
  l1_capacity : int;  (** per replica *)
  max_batch : int;
  replicas : int;
  min_replicas : int;
  max_replicas : int;
  peak_replicas : int;  (** most simultaneously active *)
  final_replicas : int;
  scale_ups : int;
  scale_downs : int;
  scale_events : (float * string) list;
      (** (simulated ms, ["+r5"] / ["-r2"]) in decision order *)
  total : int;
  served : int;
  rejected : int;
  dropped : int;
  degraded : int;
  spilled : int;  (** admitted by a ring successor, not the owner *)
  batches : int;
  coalesced : int;
  concealed_blocks : int;
  makespan_ms : float;
  throughput_rps : float;
  latency : Serve.Service.latency;
  slo_misses : int;
  slo_miss_rate : float;
  l1 : tier_stats;  (** aggregated over every replica incarnation *)
  l2 : l2_stats option;  (** [None] when the tier is disabled *)
  per_replica : replica_stat list;  (** replicas that ever activated *)
  pixels_digest : string;
      (** folded over every served image in (completion, replica, id)
          order — equal digests mean bit-identical pixels *)
}

val run :
  ?pool:Par.Pool.t ->
  ?on_complete:(int -> Serve.Request.t -> Jpeg2000.Image.t -> unit) ->
  t ->
  Serve.Request.spec ->
  report
(** Serves one open-loop workload to fleet completion. [on_complete
    replica request image] observes every served request (in the
    deterministic dispatch order) — the tests compare the image
    against the reference decoder. Raises [Invalid_argument] on a
    closed-loop spec. When a {!Telemetry.Sink} is installed the run
    emits one track per replica ([fleet.r<i>]: queued/request/stage
    spans, queue-depth counters) plus a front-end track ([fleet.front]:
    spill/degrade/reject/scale instants), and the same serve.* metrics
    and [t1.class.*] attribution as a single service; telemetry never
    changes the report. *)

val report_to_json : report -> Telemetry.Json.t
val pp_report : Format.formatter -> report -> unit
