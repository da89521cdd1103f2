module Ring = Serve.Ring
module Tier = Serve.Tier

type config = {
  replicas : int;
  min_replicas : int;
  max_replicas : int;
  vnodes : int;
  l2_capacity : int;
  l2_transfer_ps : int;
  spill : bool;
  up_frac : float;
  down_frac : float;
  slo_up : float;
  interval_ps : int;
  warmup_ps : int;
  seed : int;
}

let default_config =
  {
    replicas = 4;
    min_replicas = 4;
    max_replicas = 4;
    vnodes = 16;
    l2_capacity = 256;
    l2_transfer_ps = 20_000_000 (* 20 us per fetched tile *);
    spill = true;
    up_frac = 0.75;
    down_frac = 0.15;
    slo_up = 0.5;
    interval_ps = 5_000_000_000 (* 5 ms *);
    warmup_ps = 20_000_000_000 (* 20 ms *);
    seed = 0;
  }

let ps_of_us f = int_of_float ((f *. 1e6) +. 0.5)

let keys =
  [
    "replicas"; "min"; "max"; "vnodes"; "l2"; "l2_us"; "spill"; "up"; "down";
    "slo"; "interval"; "warmup"; "seed";
  ]

let ( let* ) = Result.bind

let parse_config s =
  let* pairs = Spec.parse_pairs s in
  let* () = Spec.check_known ~what:"fleet" keys pairs in
  let* replicas =
    Spec.int_field pairs "replicas" default_config.replicas
      (Spec.at_least "replicas" 1)
  in
  let* min_replicas =
    Spec.int_field pairs "min" replicas (Spec.at_least "min" 1)
  in
  let* max_replicas =
    Spec.int_field pairs "max"
      (Stdlib.max replicas min_replicas)
      (Spec.at_least "max" 1)
  in
  let* vnodes =
    Spec.int_field pairs "vnodes" default_config.vnodes
      (Spec.at_least "vnodes" 1)
  in
  let* l2_capacity =
    Spec.int_field pairs "l2" default_config.l2_capacity (Spec.at_least "l2" 0)
  in
  let* l2_transfer_ps =
    Spec.float_field pairs "l2_us" default_config.l2_transfer_ps (fun v ->
        Result.map ps_of_us (Spec.non_negative "l2_us" v))
  in
  let* spill =
    Spec.int_field pairs "spill" default_config.spill (fun n ->
        Result.map (fun n -> n = 1) (Spec.in_range "spill" 0 1 n))
  in
  let* up_frac =
    Spec.float_field pairs "up" default_config.up_frac
      (Spec.unit_interval "up")
  in
  let* down_frac =
    Spec.float_field pairs "down" default_config.down_frac
      (Spec.unit_interval "down")
  in
  let* slo_up =
    Spec.float_field pairs "slo" default_config.slo_up
      (Spec.unit_interval "slo")
  in
  let* interval_ps =
    Spec.float_field pairs "interval" default_config.interval_ps (fun v ->
        Result.map Serve.Service.ps_of_ms (Spec.positive "interval" v))
  in
  let* warmup_ps =
    Spec.float_field pairs "warmup" default_config.warmup_ps (fun v ->
        Result.map Serve.Service.ps_of_ms (Spec.non_negative "warmup" v))
  in
  let* seed = Spec.int_field pairs "seed" default_config.seed Spec.any in
  if min_replicas > replicas then
    Error
      (Printf.sprintf "min=%d must be <= replicas=%d" min_replicas replicas)
  else if max_replicas < replicas then
    Error
      (Printf.sprintf "max=%d must be >= replicas=%d" max_replicas replicas)
  else if down_frac > up_frac then
    Error (Printf.sprintf "down=%g must be <= up=%g" down_frac up_frac)
  else
    Ok
      {
        replicas;
        min_replicas;
        max_replicas;
        vnodes;
        l2_capacity;
        l2_transfer_ps;
        spill;
        up_frac;
        down_frac;
        slo_up;
        interval_ps;
        warmup_ps;
        seed;
      }

let config_to_string c =
  Printf.sprintf
    "replicas=%d,min=%d,max=%d,vnodes=%d,l2=%d,l2_us=%g,spill=%d,up=%g,down=%g,slo=%g,interval=%g,warmup=%g,seed=%d"
    c.replicas c.min_replicas c.max_replicas c.vnodes c.l2_capacity
    (float_of_int c.l2_transfer_ps /. 1e6)
    (if c.spill then 1 else 0)
    c.up_frac c.down_frac c.slo_up
    (Serve.Service.ms_of_ps c.interval_ps)
    (Serve.Service.ms_of_ps c.warmup_ps)
    c.seed

type t = { fc : config; svc : Serve.Service.t }

let create ?(config = default_config) ?service corpus =
  if config.replicas < 1 then invalid_arg "Fleet.create: replicas < 1";
  if config.min_replicas < 1 || config.min_replicas > config.replicas then
    invalid_arg "Fleet.create: min_replicas out of range";
  if config.max_replicas < config.replicas then
    invalid_arg "Fleet.create: max_replicas < replicas";
  if config.vnodes < 1 then invalid_arg "Fleet.create: vnodes < 1";
  if config.l2_capacity < 0 then invalid_arg "Fleet.create: l2_capacity < 0";
  if config.l2_transfer_ps < 0 then
    invalid_arg "Fleet.create: l2_transfer_ps < 0";
  if
    not
      (Float.is_finite config.up_frac
      && config.up_frac >= 0.0 && config.up_frac <= 1.0
      && Float.is_finite config.down_frac
      && config.down_frac >= 0.0
      && config.down_frac <= config.up_frac
      && Float.is_finite config.slo_up
      && config.slo_up >= 0.0 && config.slo_up <= 1.0)
  then invalid_arg "Fleet.create: autoscaler thresholds out of range";
  if config.interval_ps < 1 then invalid_arg "Fleet.create: interval_ps < 1";
  if config.warmup_ps < 0 then invalid_arg "Fleet.create: warmup_ps < 0";
  let svc = Serve.Service.create ?config:service corpus in
  if (Serve.Service.config svc).Serve.Service.ingest <> None then
    invalid_arg "Fleet.create: ingest is not supported in fleet mode";
  { fc = config; svc }

let service t = t.svc

(* -- report types ----------------------------------------------------- *)

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
  l2_transfers : int;
  l2_transfer_ms : float;
  l2_invalidations : int;
}

type replica_stat = Serve.Service.Engine.replica_stat = {
  rs_id : int;
  rs_served : int;
  rs_batches : int;
  rs_busy_ms : float;
}

type report = {
  fleet : string;
  workload : string;
  streams : int;
  policy : string;
  queue_capacity : int;
  l1_capacity : int;
  max_batch : int;
  replicas : int;
  min_replicas : int;
  max_replicas : int;
  peak_replicas : int;
  final_replicas : int;
  scale_ups : int;
  scale_downs : int;
  scale_events : (float * string) list;
  total : int;
  served : int;
  rejected : int;
  dropped : int;
  degraded : int;
  spilled : int;
  batches : int;
  coalesced : int;
  concealed_blocks : int;
  makespan_ms : float;
  throughput_rps : float;
  latency : Serve.Service.latency;
  slo_misses : int;
  slo_miss_rate : float;
  l1 : tier_stats;
  l2 : l2_stats option;
  per_replica : replica_stat list;
  pixels_digest : string;
}

let tier_of (s : Serve.Lru.stats) =
  {
    hits = s.Serve.Lru.hits;
    misses = s.Serve.Lru.misses;
    insertions = s.Serve.Lru.insertions;
    evictions = s.Serve.Lru.evictions;
    hit_rate = Serve.Lru.hit_rate s;
  }

(* -- the fleet: N replicas of the service engine ------------------------ *)

let run ?pool ?on_complete t spec =
  let fc = t.fc and sc = Serve.Service.config t.svc in
  (match spec.Serve.Request.shape with
  | Serve.Request.Closed_loop _ ->
    invalid_arg "Fleet.run: closed-loop spec (fleet workloads are open-loop)"
  | Serve.Request.Open_loop _ -> ());
  let track i = Printf.sprintf "fleet.r%d" i and front = "fleet.front" in
  (* every active replica owns a trace track from t=0, even one the
     balancer never routes to — an idle replica is a finding, not a
     hole in the trace; the front end's track exists even on a run
     with no overload and no scaling decisions *)
  for i = 0 to fc.replicas - 1 do
    Telemetry.Span.instant ~ts_ps:0 ~track:(track i) ~cat:"lifecycle" "up"
  done;
  Telemetry.Span.instant ~ts_ps:0 ~track:front ~cat:"lifecycle" "up";
  let l2 =
    if fc.l2_capacity > 0 then
      Some
        (Tier.create ~capacity:fc.l2_capacity ~transfer_ps:fc.l2_transfer_ps ())
    else None
  in
  (* (completion, replica, id, per-request digest) — sorted at the end
     so the fleet digest folds in global completion order *)
  let records = ref [] in
  let on_served ~replica ~completion_ps ~flush:_ (rq : Serve.Request.t) image =
    let id = rq.Serve.Request.id in
    let h =
      Serve.Service.fnv_image
        (Serve.Service.fnv_int Serve.Service.fnv_basis id)
        image
    in
    records := (completion_ps, replica, id, h) :: !records;
    match on_complete with Some f -> f replica rq image | None -> ()
  in
  let x =
    Serve.Service.Engine.run ?pool ~on_served
      {
        Serve.Service.Engine.replicas = fc.replicas;
        min_replicas = fc.min_replicas;
        max_replicas = fc.max_replicas;
        vnodes = fc.vnodes;
        spill = fc.spill;
        l2;
        up_frac = fc.up_frac;
        down_frac = fc.down_frac;
        slo_up = fc.slo_up;
        interval_ps = fc.interval_ps;
        warmup_ps = fc.warmup_ps;
        jitter_seed = Some fc.seed;
      }
      { Serve.Service.Engine.front; queue = track; exec = track; sched = track }
      t.svc spec
  in
  (* Fold per-request digests in global completion order; ties (same
     instant on two replicas) break on (replica, id), so the fleet
     digest is as replay-stable as the per-replica ones. *)
  let pixels =
    List.fold_left
      (fun h (_, _, _, hr) ->
        Serve.Service.fnv_int
          (Serve.Service.fnv_int h
             (Int64.to_int (Int64.shift_right_logical hr 32)))
          (Int64.to_int (Int64.logand hr 0xFFFFFFFFL)))
      Serve.Service.fnv_basis
      (List.sort compare !records)
  in
  {
    fleet = config_to_string fc;
    workload = Serve.Request.spec_to_string spec;
    streams = Serve.Service.stream_count t.svc;
    policy = Serve.Service.overload_to_string sc.Serve.Service.overload;
    queue_capacity = sc.Serve.Service.queue_capacity;
    l1_capacity = sc.Serve.Service.cache_capacity;
    max_batch = sc.Serve.Service.max_batch;
    replicas = fc.replicas;
    min_replicas = fc.min_replicas;
    max_replicas = fc.max_replicas;
    peak_replicas = x.peak_replicas;
    final_replicas = x.final_replicas;
    scale_ups = x.scale_ups;
    scale_downs = x.scale_downs;
    scale_events = x.scale_events;
    total = x.total;
    served = x.served;
    rejected = x.rejected;
    dropped = x.dropped;
    degraded = x.degraded;
    spilled = x.spilled;
    batches = x.batches;
    coalesced = x.coalesced;
    concealed_blocks = x.concealed_blocks;
    makespan_ms = x.makespan_ms;
    throughput_rps = x.throughput_rps;
    latency = x.latency;
    slo_misses = x.slo_misses;
    slo_miss_rate = x.slo_miss_rate;
    l1 = tier_of x.l1;
    l2 =
      Option.map
        (fun t2 ->
          {
            l2_capacity = fc.l2_capacity;
            l2_tier = tier_of (Tier.stats t2);
            l2_transfers = Tier.transfers t2;
            l2_transfer_ms = Serve.Service.ms_of_ps (Tier.transferred_ps t2);
            l2_invalidations = Tier.invalidations t2;
          })
        l2;
    per_replica = x.per_replica;
    pixels_digest = Printf.sprintf "%016Lx" pixels;
  }

(* -- rendering --------------------------------------------------------- *)

let tier_json t =
  let open Telemetry.Json in
  Obj
    [
      ("hits", Int t.hits);
      ("misses", Int t.misses);
      ("insertions", Int t.insertions);
      ("evictions", Int t.evictions);
      ("hit_rate", Float t.hit_rate);
    ]

let report_to_json r =
  let open Telemetry.Json in
  Obj
    [
      ("fleet", Str r.fleet);
      ("workload", Str r.workload);
      ("streams", Int r.streams);
      ("policy", Str r.policy);
      ("queue_capacity", Int r.queue_capacity);
      ("l1_capacity", Int r.l1_capacity);
      ("max_batch", Int r.max_batch);
      ( "replicas",
        Obj
          [
            ("initial", Int r.replicas);
            ("min", Int r.min_replicas);
            ("max", Int r.max_replicas);
            ("peak", Int r.peak_replicas);
            ("final", Int r.final_replicas);
            ("scale_ups", Int r.scale_ups);
            ("scale_downs", Int r.scale_downs);
            ( "events",
              List
                (List.map
                   (fun (ms, e) ->
                     Obj [ ("t_ms", Float ms); ("event", Str e) ])
                   r.scale_events) );
          ] );
      ("total", Int r.total);
      ("served", Int r.served);
      ("rejected", Int r.rejected);
      ("dropped", Int r.dropped);
      ("degraded", Int r.degraded);
      ("spilled", Int r.spilled);
      ("batches", Int r.batches);
      ("coalesced", Int r.coalesced);
      ("concealed_blocks", Int r.concealed_blocks);
      ("makespan_ms", Float r.makespan_ms);
      ("throughput_rps", Float r.throughput_rps);
      ("latency_ms", Serve.Service.latency_json r.latency);
      ("slo_misses", Int r.slo_misses);
      ("slo_miss_rate", Float r.slo_miss_rate);
      ("l1", tier_json r.l1);
      ( "l2",
        match r.l2 with
        | None -> Null
        | Some l ->
          Obj
            [
              ("capacity", Int l.l2_capacity);
              ("hits", Int l.l2_tier.hits);
              ("misses", Int l.l2_tier.misses);
              ("insertions", Int l.l2_tier.insertions);
              ("evictions", Int l.l2_tier.evictions);
              ("hit_rate", Float l.l2_tier.hit_rate);
              ("transfers", Int l.l2_transfers);
              ("transfer_ms", Float l.l2_transfer_ms);
              ("invalidations", Int l.l2_invalidations);
            ] );
      ( "per_replica",
        List
          (List.map
             (fun p ->
               Obj
                 [
                   ("id", Int p.rs_id);
                   ("served", Int p.rs_served);
                   ("batches", Int p.rs_batches);
                   ("busy_ms", Float p.rs_busy_ms);
                 ])
             r.per_replica) );
      ("pixels_digest", Str r.pixels_digest);
    ]

let pp_report ppf r =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "fleet:           %s@," r.fleet;
  Format.fprintf ppf "workload:        %s@," r.workload;
  Format.fprintf ppf "streams:         %d@," r.streams;
  Format.fprintf ppf "policy:          %s (queue %d, L1 %d, batch %d)@,"
    r.policy r.queue_capacity r.l1_capacity r.max_batch;
  Format.fprintf ppf
    "replicas:        %d initial (min %d, max %d), peak %d, final %d@,"
    r.replicas r.min_replicas r.max_replicas r.peak_replicas r.final_replicas;
  if r.scale_ups > 0 || r.scale_downs > 0 then begin
    Format.fprintf ppf "autoscale:       %d up, %d down" r.scale_ups
      r.scale_downs;
    (match r.scale_events with
    | [] -> ()
    | evs ->
      Format.fprintf ppf " [%s]"
        (String.concat ", "
           (List.map
              (fun (ms, e) -> Printf.sprintf "%s@%.1fms" e ms)
              evs)));
    Format.fprintf ppf "@,"
  end;
  Format.fprintf ppf
    "requests:        %d total, %d served, %d rejected, %d dropped, %d degraded, %d spilled@,"
    r.total r.served r.rejected r.dropped r.degraded r.spilled;
  Format.fprintf ppf "batches:         %d (%d tile needs coalesced)@,"
    r.batches r.coalesced;
  if r.concealed_blocks > 0 then
    Format.fprintf ppf "concealed:       %d blocks@," r.concealed_blocks;
  Format.fprintf ppf "makespan:        %.3f ms (%.1f req/s)@," r.makespan_ms
    r.throughput_rps;
  Serve.Service.pp_latency ppf r.latency;
  Format.fprintf ppf "SLO:             %d misses (%.1f%% of %d)@," r.slo_misses
    (100.0 *. r.slo_miss_rate) r.total;
  Format.fprintf ppf
    "L1 (all replicas): %d hits, %d misses, %d evictions (%.1f%% hit rate)@,"
    r.l1.hits r.l1.misses r.l1.evictions (100.0 *. r.l1.hit_rate);
  (match r.l2 with
  | None -> Format.fprintf ppf "L2:              disabled@,"
  | Some l ->
    Format.fprintf ppf
      "L2 (%d tiles):   %d hits, %d misses, %d evictions (%.1f%% hit rate)@,"
      l.l2_capacity l.l2_tier.hits l.l2_tier.misses l.l2_tier.evictions
      (100.0 *. l.l2_tier.hit_rate);
    Format.fprintf ppf
      "                 %d transfers, %.3f ms on the interconnect, %d invalidations@,"
      l.l2_transfers l.l2_transfer_ms l.l2_invalidations);
  List.iter
    (fun p ->
      Format.fprintf ppf
        "  r%-2d            %d served in %d batches, busy %.3f ms@," p.rs_id
        p.rs_served p.rs_batches p.rs_busy_ms)
    r.per_replica;
  Format.fprintf ppf "pixels digest:   %s" r.pixels_digest;
  Format.fprintf ppf "@]"
