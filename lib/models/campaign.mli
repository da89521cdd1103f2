(** Fault-injection campaign over the nine decoder models.

    Sweeps a fault-rate knob across model versions, coupling three
    fault surfaces per rate [r]: channel frame corruption at [r]
    (bit flips, word drops at [r/8]), entropy-payload byte corruption
    at [r/4], and processor stall jitter at [r]. Channels run in the
    configured {!Osss.Channel.protection} mode, so the table shows
    the cost of recovery (decode-time inflation from retransmissions)
    and of concealment (PSNR impact) side by side, plus the point
    where the retry budget breaks and the run aborts.

    Determinism: the campaign seed, the per-run seed derivation, the
    simulation kernel and the {!Faults.Rng} stream are all
    deterministic — two runs of the same config render identical
    tables (asserted by the CI smoke step). *)

type config = {
  seed : int;
  rates : float list;  (** swept fault rates; [0.0] = seed baseline *)
  mode : Profile.mode;
  versions : Experiment.version list;
  protection : Osss.Channel.protection;
}

val default :
  ?seed:int ->
  ?rates:float list ->
  ?mode:Profile.mode ->
  ?versions:Experiment.version list ->
  ?protection:Osss.Channel.protection ->
  unit ->
  config
(** Seed 2008, rates [0; 0.001; 0.01; 0.05], lossless, all nine
    versions, CRC/retry protection ({!Osss.Channel.Crc_retry}). *)

type row = {
  row_version : string;
  row_rate : float;
  row_result : (Outcome.t, string) result;
      (** [Error] when the run aborted (retry budget exhausted or an
          unrecovered corruption broke the model's stage protocol) *)
  row_inflation : float;  (** decode time vs the clean unprotected run *)
  row_psnr_db : float;  (** concealment fidelity vs the clean decode *)
}

val run : ?pool:Par.Pool.t -> config -> row list
(** One run per (version, rate), version-major order. The zero-rate
    run is the unfaulted, unprotected seed configuration — the
    baseline for every inflation factor. Grid points fan out over
    [pool]; per-run seeds are pure functions of the grid position and
    fault/telemetry state is domain-local, so the rows are identical
    on any pool. *)

val render : config -> row list -> string
(** The resilience table. *)

(** {1 Ingest-fault sweep}

    The second fault axis: damage on the byte-arrival path rather
    than inside the platform. One rate knob couples chunk loss (at
    the rate), duplication (rate/2), bounded reordering (rate) and
    head-of-line stall jitter (2x rate, up to 2 ms) on every
    request's delivery into the decode service; the swept table shows
    when streams stop landing before their deadlines and what the
    deadline flushes cost in concealment and PSNR. Deterministic like
    the main campaign: per-request ingest seeds are pure hashes, so
    equal seeds render equal tables on any pool. *)

type ingest_row = { ing_rate : float; ing_report : Serve.Service.report }

val run_ingest :
  ?pool:Par.Pool.t ->
  ?seed:int ->
  ?rates:float list ->
  ?mode:Profile.mode ->
  unit ->
  ingest_row list
(** One service run per rate over a 2-codestream corpus and a fixed
    open-loop workload whose 20 ms deadline clears a fault-free
    delivery — every flush is attributable to the injected faults.
    Defaults: seed 2008, rates [0; 0.01; 0.05; 0.2], lossless. *)

val render_ingest : ingest_row list -> string
val ingest_to_json : ingest_row list -> Telemetry.Json.t

(** {1 Fleet scaling sweep}

    The scaling axis: one fixed open-loop workload served by sharded
    decode fleets over a (replica count x shared-L2 size) grid, with
    autoscaling pinned off (min = max) so each row isolates one grid
    point. The workload saturates the single-replica fleet; the table
    shows rejections falling and tail latency recovering as replicas
    are added, and what the shared tile cache buys at each scale.
    Deterministic: equal seeds render equal tables on any pool. *)

type fleet_row = { fl_replicas : int; fl_l2 : int; fl_report : Fleet.report }

val run_fleet :
  ?pool:Par.Pool.t -> ?seed:int -> ?mode:Profile.mode -> unit -> fleet_row list
(** One fleet run per (replicas, l2) grid point of replicas
    [1; 2; 4; 8] by L2 sizes [0; 256] (0 = tier disabled),
    replicas-major order, over a 6-codestream corpus, with a small
    (16-tile) per-replica L1 so the L2 column measures sharing rather
    than private-cache capacity. Defaults: seed 2008, lossless. *)

val render_fleet : fleet_row list -> string
val fleet_to_json : fleet_row list -> Telemetry.Json.t

val to_json : config -> row list -> Telemetry.Json.t
(** The whole campaign as one JSON document (non-finite inflation and
    PSNR values become [null] / ["inf"]). *)
