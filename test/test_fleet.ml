(* Tests for the sharded decode fleet: the consistent-hash ring's
   remapping guarantees, the shared L2 tier's transfer accounting and
   invalidation honesty, and the fleet's determinism, admission
   policies and autoscaler. *)

let qc = QCheck_alcotest.to_alcotest

(* -- ring ------------------------------------------------------------- *)

let digests ~seed n =
  Array.init n (fun i ->
      Faults.Rng.hash64 (Int64.of_int (seed + 1)) (Int64.of_int (i + 1)))

let test_ring_empty_and_validation () =
  let empty = Fleet.Ring.create [] in
  Alcotest.(check bool) "empty" true (Fleet.Ring.is_empty empty);
  Alcotest.(check (option int)) "owns nothing" None
    (Fleet.Ring.owner empty 42L);
  Alcotest.(check (list int)) "no successors" []
    (Fleet.Ring.successors empty 42L);
  Alcotest.check_raises "vnodes < 1"
    (Invalid_argument "Fleet.Ring.create: vnodes < 1") (fun () ->
      ignore (Fleet.Ring.create ~vnodes:0 [ 1 ]))

let test_ring_members_dedup () =
  let ring = Fleet.Ring.create [ 3; 1; 3; 2; 1 ] in
  Alcotest.(check (list int)) "sorted distinct" [ 1; 2; 3 ]
    (Fleet.Ring.members ring);
  Alcotest.(check (list int)) "re-adding a member is a no-op" [ 1; 2; 3 ]
    (Fleet.Ring.members (Fleet.Ring.add ring 2));
  Alcotest.(check (list int)) "removing a non-member is a no-op" [ 1; 2; 3 ]
    (Fleet.Ring.members (Fleet.Ring.remove ring 9))

let test_ring_owner_and_successors () =
  let ring = Fleet.Ring.create [ 0; 1; 2; 3 ] in
  Array.iter
    (fun d ->
      let owner =
        match Fleet.Ring.owner ring d with
        | Some r -> r
        | None -> Alcotest.fail "non-empty ring owns every key"
      in
      let succ = Fleet.Ring.successors ring d in
      Alcotest.(check int) "owner heads the successor list" owner
        (List.hd succ);
      Alcotest.(check (list int)) "successors permute the members"
        [ 0; 1; 2; 3 ]
        (List.sort compare succ))
    (digests ~seed:7 64)

(* The two directions of the consistent-hashing contract: membership
   churn must remap exactly the departed member's keys (and nothing
   else), and each remapped key must move to the ring-order
   successor / the new member. *)
let prop_ring_remove_remaps_only_removed =
  QCheck.Test.make ~name:"remove remaps only the removed member's keys"
    ~count:40
    QCheck.(triple (int_range 2 10) small_int small_int)
    (fun (n, victim_seed, key_seed) ->
      let members = List.init n Fun.id in
      let victim = victim_seed mod n in
      let ring = Fleet.Ring.create members in
      let shrunk = Fleet.Ring.remove ring victim in
      Array.for_all
        (fun d ->
          let before = Fleet.Ring.owner ring d
          and after = Fleet.Ring.owner shrunk d in
          match (before, after) with
          | Some b, Some a when b <> victim -> a = b
          | Some _, Some a ->
            (* the key must move to the old ring's next distinct
               member, skipping the victim *)
            let next =
              List.find (fun r -> r <> victim) (Fleet.Ring.successors ring d)
            in
            a = next
          | _ -> false)
        (digests ~seed:key_seed 200))

let prop_ring_add_remaps_only_to_new =
  QCheck.Test.make ~name:"add remaps keys only onto the new member"
    ~count:40
    QCheck.(pair (int_range 1 10) small_int)
    (fun (n, key_seed) ->
      let ring = Fleet.Ring.create (List.init n Fun.id) in
      let grown = Fleet.Ring.add ring n in
      Array.for_all
        (fun d ->
          let before = Fleet.Ring.owner ring d
          and after = Fleet.Ring.owner grown d in
          match (before, after) with
          | Some b, Some a -> a = b || a = n
          | _ -> false)
        (digests ~seed:key_seed 200))

let test_ring_remap_fraction () =
  (* Removing one of 16 members must remap about 1/16 of the
     keyspace; the hashes are fixed, so this is a deterministic
     measurement with loose bounds. *)
  let keys = digests ~seed:2008 10_000 in
  let ring = Fleet.Ring.create (List.init 16 Fun.id) in
  let shrunk = Fleet.Ring.remove ring 5 in
  let remapped =
    Array.fold_left
      (fun acc d ->
        if Fleet.Ring.owner ring d <> Fleet.Ring.owner shrunk d then acc + 1
        else acc)
      0 keys
  in
  let fraction = float_of_int remapped /. float_of_int (Array.length keys) in
  Alcotest.(check bool)
    (Printf.sprintf "remapped fraction %.4f within [0.02, 0.15]" fraction)
    true
    (fraction >= 0.02 && fraction <= 0.15)

(* -- shared L2 tier ---------------------------------------------------- *)

let corpus () =
  Array.init 2 (fun i ->
      Models.Workload.codestream ~width:64 ~height:64 ~seed:(2008 + i)
        Jpeg2000.Codestream.Lossless)

(* A real decoded tile for cache payloads (the tier stores whatever
   tiles the decode produces; the tests only care about identity). *)
let some_tile data =
  let stream = Result.get_ok (Jpeg2000.Codestream.parse_result data) in
  let header = stream.Jpeg2000.Codestream.header in
  let seg = List.hd stream.Jpeg2000.Codestream.tiles in
  let st = Jpeg2000.Decoder.stage_tile ~discard:0 header seg in
  let oks =
    Array.init (Jpeg2000.Decoder.staged_jobs st) (Jpeg2000.Decoder.staged_run st)
  in
  fst (Jpeg2000.Decoder.finish_staged_ok st oks)

let key ~digest ~tile =
  { Serve.Cache.digest; length = 1000; tile; discard = 0 }

let test_tier_validation () =
  Alcotest.check_raises "capacity < 1"
    (Invalid_argument "Fleet.Tier.create: capacity < 1") (fun () ->
      ignore (Fleet.Tier.create ~capacity:0 ~transfer_ps:0 ()));
  Alcotest.check_raises "transfer_ps < 0"
    (Invalid_argument "Fleet.Tier.create: transfer_ps < 0") (fun () ->
      ignore (Fleet.Tier.create ~capacity:4 ~transfer_ps:(-1) ()))

let test_tier_transfer_accounting () =
  let tile = some_tile (corpus ()).(0) in
  let t = Fleet.Tier.create ~capacity:4 ~transfer_ps:1_000 () in
  let k = key ~digest:17L ~tile:0 in
  Alcotest.(check bool) "miss" true (Fleet.Tier.find t k = None);
  Alcotest.(check int) "a miss is not a transfer" 0 (Fleet.Tier.transfers t);
  Fleet.Tier.add t k tile;
  Alcotest.(check bool) "hit" true (Fleet.Tier.find t k <> None);
  Alcotest.(check int) "one transfer" 1 (Fleet.Tier.transfers t);
  Alcotest.(check int) "priced per fetch" 1_000 (Fleet.Tier.transferred_ps t);
  let s = Fleet.Tier.stats t in
  Alcotest.(check int) "hits" 1 s.Serve.Lru.hits;
  Alcotest.(check int) "misses" 1 s.Serve.Lru.misses

let test_tier_invalidation_never_stale () =
  (* Force every key into one bucket: invalidation must still drop
     exactly the named stream's tiles and keep serving the rest. *)
  let tile = some_tile (corpus ()).(0) in
  let t = Fleet.Tier.create ~hash:(fun _ -> 0) ~capacity:32 ~transfer_ps:0 () in
  let ks_a = List.init 4 (fun i -> key ~digest:5L ~tile:i)
  and ks_b = List.init 4 (fun i -> key ~digest:6L ~tile:i) in
  List.iter (fun k -> Fleet.Tier.add t k tile) (ks_a @ ks_b);
  let dropped = Fleet.Tier.invalidate_stream t ~digest:5L ~length:1000 in
  Alcotest.(check int) "dropped all of stream A" 4 dropped;
  Alcotest.(check int) "counted" 4 (Fleet.Tier.invalidations t);
  List.iter
    (fun k ->
      Alcotest.(check bool) "stream A gone" true (Fleet.Tier.find t k = None))
    ks_a;
  List.iter
    (fun k ->
      Alcotest.(check bool) "stream B intact" true (Fleet.Tier.find t k <> None))
    ks_b;
  (* A matching digest with a different length names a different
     stream: it must survive. *)
  let k_len = { (key ~digest:5L ~tile:9) with Serve.Cache.length = 999 } in
  Fleet.Tier.add t k_len tile;
  ignore (Fleet.Tier.invalidate_stream t ~digest:5L ~length:1000);
  Alcotest.(check bool) "same digest, other length survives" true
    (Fleet.Tier.find t k_len <> None)

let prop_tier_invalidate_collisions =
  QCheck.Test.make
    ~name:"invalidation never serves a stale tile (colliding hashes)"
    ~count:30
    QCheck.(triple (int_range 1 4) (int_range 1 12) small_int)
    (fun (streams, tiles, pick_seed) ->
      let tile = some_tile (corpus ()).(0) in
      let t =
        Fleet.Tier.create ~hash:(fun _ -> 0) ~capacity:128 ~transfer_ps:0 ()
      in
      let keys_of s = List.init tiles (fun i -> key ~digest:(Int64.of_int (s + 1)) ~tile:i) in
      for s = 0 to streams - 1 do
        List.iter (fun k -> Fleet.Tier.add t k tile) (keys_of s)
      done;
      let victim = pick_seed mod streams in
      let dropped =
        Fleet.Tier.invalidate_stream t
          ~digest:(Int64.of_int (victim + 1))
          ~length:1000
      in
      dropped = tiles
      && List.for_all (fun k -> Fleet.Tier.find t k = None) (keys_of victim)
      && List.for_all
           (fun s ->
             s = victim
             || List.for_all (fun k -> Fleet.Tier.find t k <> None) (keys_of s))
           (List.init streams Fun.id))

(* -- fleet ------------------------------------------------------------- *)

let spec_exn s =
  match Serve.Request.parse_spec s with
  | Ok spec -> spec
  | Error e -> Alcotest.failf "bad spec %S: %s" s e

let report_string r = Telemetry.Json.to_string (Fleet.report_to_json r)

let small_l1 capacity =
  { Serve.Service.default_config with Serve.Service.cache_capacity = capacity }

let test_fleet_rerun_and_jobs_invariant () =
  (* Autoscaling, spill and the shared L2 all active: the report must
     still be byte-identical across reruns and across worker
     counts. *)
  let config =
    {
      Fleet.default_config with
      Fleet.replicas = 2;
      min_replicas = 1;
      max_replicas = 4;
      l2_capacity = 32;
      interval_ps = 2_000_000_000;
      warmup_ps = 5_000_000_000;
    }
  in
  let run_with jobs =
    let fleet = Fleet.create ~config ~service:(small_l1 4) (corpus ()) in
    Par.Pool.with_jobs jobs (fun pool ->
        report_string
          (Fleet.run ~pool fleet (spec_exn "open:n=32,rate=2500,seed=5,deadline=15")))
  in
  let a = run_with 1 in
  Alcotest.(check string) "rerun" a (run_with 1);
  Alcotest.(check string) "jobs=2" a (run_with 2);
  Alcotest.(check string) "jobs=4" a (run_with 4)

(* Recorded from the list-scan LRU, the per-sample region crop and the
   closure-folded pixel digest: with 8-tile L1s and an evicting L2, the
   report must not move by a byte. *)
let golden_report =
  "{\"fleet\":\"replicas=2,min=2,max=2,vnodes=16,l2=10,l2_us=20,spill=1,up=0.75,down=0.15,slo=0.5,interval=5,warmup=20,seed=0\",\"workload\":\"open:n=40,rate=1500,seed=29,deadline=20,region=0.4,reduced=0.3\",\"streams\":3,\"policy\":\"reject\",\"queue_capacity\":32,\"l1_capacity\":8,\"max_batch\":8,\"replicas\":{\"initial\":2,\"min\":2,\"max\":2,\"peak\":2,\"final\":2,\"scale_ups\":0,\"scale_downs\":0,\"events\":[]},\"total\":40,\"served\":40,\"rejected\":0,\"dropped\":0,\"degraded\":0,\"spilled\":0,\"batches\":38,\"coalesced\":0,\"concealed_blocks\":0,\"makespan_ms\":35.290017201,\"throughput_rps\":1133.46501851,\"latency_ms\":{\"mean\":0.7000947277,\"p50\":0.644010345,\"p95\":1.383750145,\"p99\":1.389942834,\"max\":1.389942834},\"slo_misses\":0,\"slo_miss_rate\":0,\"l1\":{\"hits\":72,\"misses\":192,\"insertions\":192,\"evictions\":176,\"hit_rate\":0.272727272727},\"l2\":{\"capacity\":10,\"hits\":22,\"misses\":170,\"insertions\":170,\"evictions\":160,\"hit_rate\":0.114583333333,\"transfers\":22,\"transfer_ms\":0.44,\"invalidations\":0},\"per_replica\":[{\"id\":0,\"served\":12,\"batches\":12,\"busy_ms\":4.414123802},{\"id\":1,\"served\":28,\"batches\":26,\"busy_ms\":16.054402713}],\"pixels_digest\":\"84379d26388f85df\"}"

let test_fleet_golden_report () =
  let streams =
    Array.init 3 (fun i ->
        Models.Workload.codestream ~width:80 ~height:72 ~seed:(2008 + i)
          Jpeg2000.Codestream.Lossless)
  in
  let config =
    {
      Fleet.default_config with
      Fleet.replicas = 2;
      min_replicas = 2;
      max_replicas = 2;
      l2_capacity = 10;
    }
  in
  let r =
    Fleet.run
      (Fleet.create ~config ~service:(small_l1 8) streams)
      (spec_exn "open:n=40,rate=1500,seed=29,region=0.4,reduced=0.3,deadline=20")
  in
  (match r.Fleet.l2 with
  | Some l2 ->
    Alcotest.(check bool) "L2 evicts" true (l2.Fleet.l2_tier.Fleet.evictions > 0)
  | None -> Alcotest.fail "no L2 in the report");
  Alcotest.(check string) "report byte-identical" golden_report (report_string r)

let test_fleet_counters_balance () =
  let fleet =
    Fleet.create
      ~config:{ Fleet.default_config with Fleet.replicas = 3; min_replicas = 3; max_replicas = 3 }
      ~service:(small_l1 4) (corpus ())
  in
  let r = Fleet.run fleet (spec_exn "open:n=40,rate=1500,seed=3") in
  Alcotest.(check int) "total = served + rejected + dropped" r.Fleet.total
    (r.Fleet.served + r.Fleet.rejected + r.Fleet.dropped);
  Alcotest.(check int) "served = sum of replica serves" r.Fleet.served
    (List.fold_left (fun acc s -> acc + s.Fleet.rs_served) 0 r.Fleet.per_replica);
  Alcotest.(check int) "batches = sum of replica batches" r.Fleet.batches
    (List.fold_left (fun acc s -> acc + s.Fleet.rs_batches) 0 r.Fleet.per_replica)

let test_fleet_matches_reference_decoder () =
  (* Every image a replica serves must equal the reference decoder's
     output for the request's (possibly degraded) target — caching,
     spilling and the L2 transfer path change timing, never pixels. *)
  let streams = corpus () in
  let fleet =
    Fleet.create
      ~config:{ Fleet.default_config with Fleet.l2_capacity = 32 }
      ~service:(small_l1 4) streams
  in
  let checked = ref 0 in
  let report =
    Fleet.run
      ~on_complete:(fun _replica rq img ->
        let data = streams.(rq.Serve.Request.stream) in
        let reference =
          match rq.Serve.Request.target with
          | Serve.Request.Full -> Jpeg2000.Decoder.decode data
          | Serve.Request.Region { rx; ry; rw; rh } ->
            Jpeg2000.Decoder.decode_region ~x:rx ~y:ry ~w:rw ~h:rh data
          | Serve.Request.Reduced { discard } ->
            Jpeg2000.Decoder.decode_reduced ~discard_levels:discard data
        in
        incr checked;
        if not (Jpeg2000.Image.equal img reference) then
          Alcotest.failf "request %d diverges from the reference decoder"
            rq.Serve.Request.id)
      fleet
      (spec_exn "open:n=30,rate=600,seed=21")
  in
  Alcotest.(check int) "all served requests checked" report.Fleet.served !checked

let test_fleet_l2_shares_decodes () =
  (* A 2-tile L1 cannot hold a 64x64 stream's four tiles, so repeat
     requests thrash the L1 — with the shared tier enabled they must
     come back as L2 hits, and the combined hit ratio must beat the
     L1-only baseline. *)
  let combined (r : Fleet.report) =
    let lookups = r.Fleet.l1.Fleet.hits + r.Fleet.l1.Fleet.misses in
    let hits =
      r.Fleet.l1.Fleet.hits
      +
      match r.Fleet.l2 with
      | Some l -> l.Fleet.l2_tier.Fleet.hits
      | None -> 0
    in
    float_of_int hits /. float_of_int (max 1 lookups)
  in
  let run l2 =
    let config =
      { Fleet.default_config with Fleet.replicas = 2; min_replicas = 2; max_replicas = 2; l2_capacity = l2 }
    in
    Fleet.run
      (Fleet.create ~config ~service:(small_l1 2) (corpus ()))
      (spec_exn "open:n=24,rate=800,seed=5")
  in
  let bare = run 0 and warm = run 64 in
  Alcotest.(check bool) "tier disabled" true (bare.Fleet.l2 = None);
  (match warm.Fleet.l2 with
  | None -> Alcotest.fail "tier enabled but unreported"
  | Some l ->
    Alcotest.(check bool) "L2 hits" true (l.Fleet.l2_tier.Fleet.hits > 0);
    Alcotest.(check int) "every hit is a priced transfer"
      l.Fleet.l2_tier.Fleet.hits l.Fleet.l2_transfers);
  Alcotest.(check bool) "combined ratio beats L1-only" true
    (combined warm > combined bare)

let test_fleet_autoscales_under_overload () =
  let config =
    {
      Fleet.default_config with
      Fleet.replicas = 1;
      min_replicas = 1;
      max_replicas = 4;
      l2_capacity = 32;
      interval_ps = 2_000_000_000;
      warmup_ps = 5_000_000_000;
    }
  in
  let service =
    {
      Serve.Service.default_config with
      Serve.Service.cache_capacity = 4;
      queue_capacity = 8;
    }
  in
  let fleet = Fleet.create ~config ~service (corpus ()) in
  let r = Fleet.run fleet (spec_exn "open:n=64,rate=6000,seed=9,deadline=5") in
  Alcotest.(check bool) "scaled up" true (r.Fleet.scale_ups >= 1);
  Alcotest.(check bool) "peak grew" true (r.Fleet.peak_replicas > 1);
  Alcotest.(check int) "one event per decision"
    (r.Fleet.scale_ups + r.Fleet.scale_downs)
    (List.length r.Fleet.scale_events);
  Alcotest.(check bool) "bounded by max" true (r.Fleet.peak_replicas <= 4)

let test_fleet_spill_policy () =
  (* One stream, so every request hashes to one owner: with a 2-deep
     queue and near-simultaneous arrivals the owner saturates at
     once. Spill must shed onto the other replica; without it the
     front end can only refuse. *)
  let one_stream = Array.sub (corpus ()) 0 1 in
  let service =
    {
      Serve.Service.default_config with
      Serve.Service.queue_capacity = 2;
      overload = Serve.Service.Reject;
      cache_capacity = 4;
    }
  in
  let run spill =
    let config =
      { Fleet.default_config with Fleet.replicas = 2; min_replicas = 2; max_replicas = 2; spill }
    in
    Fleet.run
      (Fleet.create ~config ~service one_stream)
      (spec_exn "open:n=24,rate=100000,seed=3")
  in
  let with_spill = run true and without = run false in
  Alcotest.(check bool) "spill fires" true (with_spill.Fleet.spilled > 0);
  Alcotest.(check int) "no spill when disabled" 0 without.Fleet.spilled;
  Alcotest.(check bool) "disabled spill refuses instead" true
    (without.Fleet.rejected > with_spill.Fleet.rejected)

let test_fleet_config_errors () =
  let check_error spec want =
    match Fleet.parse_config spec with
    | Ok _ -> Alcotest.failf "%S unexpectedly parsed" spec
    | Error e -> Alcotest.(check string) spec want e
  in
  check_error "replicas=0" "replicas=0 must be >= 1";
  check_error "replicas=2,min=5" "min=5 must be <= replicas=2";
  check_error "up=1.5" "up=1.5 must be in [0, 1]";
  check_error "up=0.2,down=0.4" "down=0.4 must be <= up=0.2";
  check_error "bogus=1" "unknown fleet key \"bogus\"";
  check_error "interval=0" "interval=0 must be > 0"

let test_fleet_config_roundtrip () =
  match Fleet.parse_config (Fleet.config_to_string Fleet.default_config) with
  | Error e -> Alcotest.failf "canonical form failed to parse: %s" e
  | Ok c ->
    Alcotest.(check bool) "round-trips to the same config" true
      (c = Fleet.default_config)

let test_fleet_rejects_bad_inputs () =
  let streams = corpus () in
  Alcotest.check_raises "ingest unsupported"
    (Invalid_argument "Fleet.create: ingest is not supported in fleet mode")
    (fun () ->
      let ingest =
        match Faults.Ingest.parse_spec "chunk=256" with
        | Ok i -> i
        | Error e -> Alcotest.failf "bad ingest spec: %s" e
      in
      ignore
        (Fleet.create
           ~service:
             { Serve.Service.default_config with Serve.Service.ingest = Some ingest }
           streams));
  Alcotest.check_raises "closed-loop spec"
    (Invalid_argument "Fleet.run: closed-loop spec (fleet workloads are open-loop)")
    (fun () ->
      ignore
        (Fleet.run (Fleet.create streams)
           (spec_exn "closed:n=8,clients=2,think=1,seed=1")))

(* -- goldens over the CLI corpus ------------------------------------- *)

(* The corpus [osss_sim fleet] builds by default: six default-size
   streams seeded 2008, 2009, ... *)
let cli_corpus ?(mode = Jpeg2000.Codestream.Lossless) () =
  Array.init 6 (fun i -> Models.Workload.codestream ~seed:(2008 + i) mode)

let fleet_config s =
  match Fleet.parse_config s with
  | Ok c -> c
  | Error e -> Alcotest.failf "bad fleet spec %S: %s" s e

let cli_service ?(queue = 32) ?(policy = Serve.Service.Reject) ?(cache = 128)
    ?(batch = 8) () =
  {
    Serve.Service.queue_capacity = queue;
    overload = policy;
    cache_capacity = cache;
    max_batch = batch;
    ingest = None;
  }

let f2 =
  ( "replicas=2,min=1,max=6,interval=2,warmup=3,l2=64",
    cli_service ~cache:8 (),
    Jpeg2000.Codestream.Lossless,
    "open:n=300,rate=6000,seed=4,deadline=15" )

let run_cli ?pool (fleet, service, mode, workload) =
  Fleet.run ?pool
    (Fleet.create ~config:(fleet_config fleet) ~service (cli_corpus ~mode ()))
    (spec_exn workload)

(* Recorded before the service and the fleet shared one engine: an
   autoscaling run with 5 scale-ups, 2 scale-downs and 24 spills; spill
   and the L2 off under drop-oldest; a degrading autoscaler with no L1
   and dispatch jitter; and a single replica behind an L2. *)
let cli_goldens =
  [
    ( f2,
      {|{"fleet":"replicas=2,min=1,max=6,vnodes=16,l2=64,l2_us=20,spill=1,up=0.75,down=0.15,slo=0.5,interval=2,warmup=3,seed=0","workload":"open:n=300,rate=6000,seed=4,deadline=15,region=0.25,reduced=0.25","streams":6,"policy":"reject","queue_capacity":32,"l1_capacity":8,"max_batch":8,"replicas":{"initial":2,"min":1,"max":6,"peak":6,"final":5,"scale_ups":5,"scale_downs":2,"events":[{"t_ms":4,"event":"-r0"},{"t_ms":8,"event":"+r2"},{"t_ms":10,"event":"+r0"},{"t_ms":12,"event":"+r3"},{"t_ms":22,"event":"+r4"},{"t_ms":42,"event":"+r5"},{"t_ms":66,"event":"-r5"}]},"total":300,"served":288,"rejected":12,"dropped":0,"degraded":0,"spilled":24,"batches":53,"coalesced":996,"concealed_blocks":0,"makespan_ms":73.53925701,"throughput_rps":3916.27562896,"latency_ms":{"mean":14.1213654874,"p50":12.624503751,"p95":35.408007805,"p99":38.927838806,"max":42.050890238},"slo_misses":132,"slo_miss_rate":0.44,"l1":{"hits":265,"misses":3623,"insertions":2627,"evictions":2579,"hit_rate":0.068158436214},"l2":{"capacity":64,"hits":705,"misses":1922,"insertions":1922,"evictions":1858,"hit_rate":0.268366958508,"transfers":705,"transfer_ms":14.1,"invalidations":0},"per_replica":[{"id":0,"served":74,"batches":16,"busy_ms":62.603854788},{"id":1,"served":77,"batches":11,"busy_ms":67.210314672},{"id":2,"served":69,"batches":11,"busy_ms":50.391227516},{"id":3,"served":12,"batches":6,"busy_ms":12.600368583},{"id":4,"served":56,"batches":9,"busy_ms":47.733832686},{"id":5,"served":0,"batches":0,"busy_ms":0}],"pixels_digest":"f84c4bd97a72839a"}|}
    );
    ( ( "replicas=3,spill=0,l2=0",
        cli_service ~policy:Serve.Service.Drop_oldest ~queue:4 ~cache:4 (),
        Jpeg2000.Codestream.Lossless,
        "open:n=120,rate=9000,seed=8" ),
      {|{"fleet":"replicas=3,min=3,max=3,vnodes=16,l2=0,l2_us=20,spill=0,up=0.75,down=0.15,slo=0.5,interval=5,warmup=20,seed=0","workload":"open:n=120,rate=9000,seed=8,deadline=25,region=0.25,reduced=0.25","streams":6,"policy":"drop-oldest","queue_capacity":4,"l1_capacity":4,"max_batch":8,"replicas":{"initial":3,"min":3,"max":3,"peak":3,"final":3,"scale_ups":0,"scale_downs":0,"events":[]},"total":120,"served":50,"rejected":0,"dropped":70,"degraded":0,"spilled":0,"batches":15,"coalesced":158,"concealed_blocks":0,"makespan_ms":20.115978139,"throughput_rps":2485.58631624,"latency_ms":{"mean":4.1015641925,"p50":3.877299545,"p95":6.843784363,"p99":7.964727569,"max":7.964727569},"slo_misses":70,"slo_miss_rate":0.583333333333,"l1":{"hits":26,"misses":608,"insertions":450,"evictions":438,"hit_rate":0.0410094637224},"l2":null,"per_replica":[{"id":0,"served":17,"batches":5,"busy_ms":19.700480244},{"id":1,"served":17,"batches":5,"busy_ms":18.558802275},{"id":2,"served":16,"batches":5,"busy_ms":20.008905189}],"pixels_digest":"e25a42d6906a742e"}|}
    );
    ( ( "replicas=4,min=2,max=4,interval=1,l2=32,seed=7",
        cli_service ~policy:Serve.Service.Degrade ~queue:6 ~cache:0 (),
        Jpeg2000.Codestream.Lossless,
        "open:n=200,rate=8000,seed=12,region=0.3,reduced=0.3" ),
      {|{"fleet":"replicas=4,min=2,max=4,vnodes=16,l2=32,l2_us=20,spill=1,up=0.75,down=0.15,slo=0.5,interval=1,warmup=20,seed=7","workload":"open:n=200,rate=8000,seed=12,deadline=25,region=0.3,reduced=0.3","streams":6,"policy":"degrade","queue_capacity":6,"l1_capacity":0,"max_batch":8,"replicas":{"initial":4,"min":2,"max":4,"peak":4,"final":4,"scale_ups":1,"scale_downs":1,"events":[{"t_ms":1,"event":"-r3"},{"t_ms":5,"event":"+r3"}]},"total":200,"served":106,"rejected":94,"dropped":0,"degraded":140,"spilled":48,"batches":24,"coalesced":143,"concealed_blocks":0,"makespan_ms":37.108865529,"throughput_rps":2856.4602687,"latency_ms":{"mean":7.66271989017,"p50":7.602105699,"p95":13.370492711,"p99":14.005287328,"max":14.870354516},"slo_misses":94,"slo_miss_rate":0.47,"l1":{"hits":0,"misses":0,"insertions":0,"evictions":0,"hit_rate":0},"l2":{"capacity":32,"hits":272,"misses":1177,"insertions":1177,"evictions":1145,"hit_rate":0.187715665977,"transfers":272,"transfer_ms":5.44,"invalidations":0},"per_replica":[{"id":0,"served":29,"batches":6,"busy_ms":29.247558167},{"id":1,"served":40,"batches":9,"busy_ms":36.240970306},{"id":2,"served":31,"batches":6,"busy_ms":33.057707911},{"id":3,"served":6,"batches":3,"busy_ms":9.86984687}],"pixels_digest":"76e4b3fd54f5d571"}|}
    );
    ( ( "replicas=1,l2=16",
        cli_service ~queue:5 ~batch:2 (),
        Jpeg2000.Codestream.Lossy,
        "open:n=60,rate=5000,seed=2" ),
      {|{"fleet":"replicas=1,min=1,max=1,vnodes=16,l2=16,l2_us=20,spill=1,up=0.75,down=0.15,slo=0.5,interval=5,warmup=20,seed=0","workload":"open:n=60,rate=5000,seed=2,deadline=25,region=0.25,reduced=0.25","streams":6,"policy":"reject","queue_capacity":5,"l1_capacity":128,"max_batch":2,"replicas":{"initial":1,"min":1,"max":1,"peak":1,"final":1,"scale_ups":0,"scale_downs":0,"events":[]},"total":60,"served":20,"rejected":40,"dropped":0,"degraded":0,"spilled":0,"batches":11,"coalesced":0,"concealed_blocks":0,"makespan_ms":16.481088471,"throughput_rps":1213.51208297,"latency_ms":{"mean":4.577358855,"p50":4.044596031,"p95":7.361178365,"p99":7.600578423,"max":7.600578423},"slo_misses":40,"slo_miss_rate":0.666666666667,"l1":{"hits":55,"misses":197,"insertions":197,"evictions":69,"hit_rate":0.218253968254},"l2":{"capacity":16,"hits":0,"misses":197,"insertions":197,"evictions":181,"hit_rate":0,"transfers":0,"transfer_ms":0,"invalidations":0},"per_replica":[{"id":0,"served":20,"batches":11,"busy_ms":16.302187645}],"pixels_digest":"6cc7cbbe4e572f1f"}|}
    );
  ]

let test_fleet_cli_golden_reports () =
  List.iter
    (fun (((fleet, _, _, workload) as cfg), golden) ->
      Alcotest.(check string)
        (Printf.sprintf "%s / %s byte-identical" fleet workload)
        golden
        (report_string (run_cli cfg)))
    cli_goldens

(* Recorded with the goldens above: the Chrome trace of the F2 run. *)
let golden_f2_trace_digest = "b4be6fb9805def8de617fa90b0bcbb2d"

let test_fleet_trace_digest () =
  let sink, _ = Telemetry.Sink.with_sink (fun () -> run_cli f2) in
  Alcotest.(check string) "F2 Chrome trace" golden_f2_trace_digest
    (Digest.to_hex
       (Digest.string (Telemetry.Chrome.to_string (Telemetry.Sink.events sink))))

(* -- conservation over random configs --------------------------------- *)

type fleet_draw = {
  d_replicas : int;
  d_min : int;
  d_max : int;
  d_spill : bool;
  d_l2 : int;
  d_policy : Serve.Service.overload;
  d_queue : int;
  d_cache : int;
  d_workload : string;
}

let print_fleet_draw d =
  Printf.sprintf
    "replicas=%d min=%d max=%d spill=%b l2=%d policy=%s queue=%d cache=%d %s"
    d.d_replicas d.d_min d.d_max d.d_spill d.d_l2
    (Serve.Service.overload_to_string d.d_policy)
    d.d_queue d.d_cache d.d_workload

let fleet_draw =
  let open QCheck.Gen in
  let* d_replicas = int_range 1 4 in
  let* d_min = int_range 1 d_replicas and* d_max = int_range d_replicas 4 in
  let* d_spill = bool and* d_l2 = int_range 0 16 in
  let* d_policy = oneofl Serve.Service.[ Reject; Drop_oldest; Degrade ] in
  let* d_queue = int_range 1 8 and* d_cache = int_range 0 16 in
  let+ d_workload =
    map3
      (fun n rate seed ->
        Printf.sprintf "open:n=%d,rate=%d,seed=%d,deadline=8" n rate seed)
      (int_range 1 40) (int_range 500 12000) (int_range 0 9999)
  in
  { d_replicas; d_min; d_max; d_spill; d_l2; d_policy; d_queue; d_cache; d_workload }

let test_fleet_conservation () =
  let corpus = corpus () in
  let sum f r = List.fold_left (fun acc s -> acc + f s) 0 r.Fleet.per_replica in
  let prop pool1 pool2 d =
    let config =
      {
        Fleet.default_config with
        Fleet.replicas = d.d_replicas;
        min_replicas = d.d_min;
        max_replicas = d.d_max;
        spill = d.d_spill;
        l2_capacity = d.d_l2;
        interval_ps = 1_000_000_000;
        warmup_ps = 2_000_000_000;
      }
    in
    let service =
      cli_service ~queue:d.d_queue ~policy:d.d_policy ~cache:d.d_cache ()
    in
    let run pool =
      Fleet.run ~pool
        (Fleet.create ~config ~service corpus)
        (spec_exn d.d_workload)
    in
    let r = run pool1 in
    r.Fleet.total = r.Fleet.served + r.Fleet.rejected + r.Fleet.dropped
    && sum (fun s -> s.Fleet.rs_served) r = r.Fleet.served
    && sum (fun s -> s.Fleet.rs_batches) r = r.Fleet.batches
    && r.Fleet.degraded <= r.Fleet.total
    && String.equal (report_string r) (report_string (run pool2))
  in
  Par.Pool.with_jobs 1 (fun pool1 ->
      Par.Pool.with_jobs 2 (fun pool2 ->
          QCheck.Test.check_exn ~rand:(Random.State.make [| 15 |])
            (QCheck.Test.make ~name:"fleet conserves requests" ~count:40
               (QCheck.make ~print:print_fleet_draw fleet_draw)
               (prop pool1 pool2))))

let () =
  Alcotest.run "fleet"
    [
      ( "ring",
        [
          Alcotest.test_case "empty and validation" `Quick
            test_ring_empty_and_validation;
          Alcotest.test_case "members dedup" `Quick test_ring_members_dedup;
          Alcotest.test_case "owner and successors" `Quick
            test_ring_owner_and_successors;
          Alcotest.test_case "remap fraction ~1/n" `Quick
            test_ring_remap_fraction;
          qc prop_ring_remove_remaps_only_removed;
          qc prop_ring_add_remaps_only_to_new;
        ] );
      ( "tier",
        [
          Alcotest.test_case "validation" `Quick test_tier_validation;
          Alcotest.test_case "transfer accounting" `Quick
            test_tier_transfer_accounting;
          Alcotest.test_case "invalidation never stale" `Quick
            test_tier_invalidation_never_stale;
          qc prop_tier_invalidate_collisions;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "rerun and jobs invariant" `Quick
            test_fleet_rerun_and_jobs_invariant;
          Alcotest.test_case "golden report" `Quick test_fleet_golden_report;
          Alcotest.test_case "counters balance" `Quick
            test_fleet_counters_balance;
          Alcotest.test_case "matches reference decoder" `Quick
            test_fleet_matches_reference_decoder;
          Alcotest.test_case "L2 shares decodes" `Quick
            test_fleet_l2_shares_decodes;
          Alcotest.test_case "autoscales under overload" `Quick
            test_fleet_autoscales_under_overload;
          Alcotest.test_case "spill policy" `Quick test_fleet_spill_policy;
          Alcotest.test_case "config errors" `Quick test_fleet_config_errors;
          Alcotest.test_case "config roundtrip" `Quick
            test_fleet_config_roundtrip;
          Alcotest.test_case "rejects bad inputs" `Quick
            test_fleet_rejects_bad_inputs;
          Alcotest.test_case "CLI golden reports" `Quick
            test_fleet_cli_golden_reports;
          Alcotest.test_case "trace digest" `Quick test_fleet_trace_digest;
          Alcotest.test_case "conservation over random configs" `Quick
            test_fleet_conservation;
        ] );
    ]
