(* Tests for the decode service layer: the LRU cache, workload specs,
   the scalable-decode equivalences the cache keys rely on, and the
   service's determinism and overload policies. *)

let qc = QCheck_alcotest.to_alcotest

(* -- LRU ------------------------------------------------------------- *)

let test_lru_capacity_one () =
  let c = Serve.Lru.create ~capacity:1 () in
  Serve.Lru.add c "a" 1;
  Serve.Lru.add c "b" 2;
  Alcotest.(check (option int)) "a evicted" None (Serve.Lru.find c "a");
  Alcotest.(check (option int)) "b present" (Some 2) (Serve.Lru.find c "b");
  Alcotest.(check int) "length" 1 (Serve.Lru.length c);
  let s = Serve.Lru.stats c in
  Alcotest.(check int) "one eviction" 1 s.Serve.Lru.evictions;
  Alcotest.(check int) "hits" 1 s.Serve.Lru.hits;
  Alcotest.(check int) "misses" 1 s.Serve.Lru.misses

let test_lru_eviction_order () =
  (* A hit must refresh recency: after touching [a], inserting over
     capacity evicts [b], not [a]. *)
  let c = Serve.Lru.create ~capacity:2 () in
  Serve.Lru.add c "a" 1;
  Serve.Lru.add c "b" 2;
  Alcotest.(check (option int)) "touch a" (Some 1) (Serve.Lru.find c "a");
  Serve.Lru.add c "c" 3;
  Alcotest.(check (option int)) "b evicted" None (Serve.Lru.find c "b");
  Alcotest.(check (option int)) "a survives" (Some 1) (Serve.Lru.find c "a");
  Alcotest.(check (option int)) "c present" (Some 3) (Serve.Lru.find c "c");
  (* Interleave further: touch c, insert d -> a goes. *)
  ignore (Serve.Lru.find c "c");
  Serve.Lru.add c "d" 4;
  Alcotest.(check (option int)) "a evicted second" None (Serve.Lru.find c "a");
  Alcotest.(check (option int)) "c still present" (Some 3) (Serve.Lru.find c "c")

let test_lru_collision_honesty () =
  (* With every key hashed to the same bucket, distinct keys must
     still resolve to their own values: the cache compares the full
     key on a hash match. *)
  let c = Serve.Lru.create ~hash:(fun _ -> 0) ~capacity:8 () in
  let keys = [ "alpha"; "beta"; "gamma"; "delta" ] in
  List.iteri (fun i k -> Serve.Lru.add c k (i * 10)) keys;
  List.iteri
    (fun i k ->
      Alcotest.(check (option int)) k (Some (i * 10)) (Serve.Lru.find c k))
    keys;
  Alcotest.(check (option int)) "absent key" None (Serve.Lru.find c "epsilon")

let test_lru_replace_in_place () =
  let c = Serve.Lru.create ~capacity:2 () in
  Serve.Lru.add c "a" 1;
  Serve.Lru.add c "b" 2;
  Serve.Lru.add c "a" 9;
  Alcotest.(check int) "no growth" 2 (Serve.Lru.length c);
  Alcotest.(check (option int)) "updated" (Some 9) (Serve.Lru.find c "a");
  Alcotest.(check (option int)) "b untouched" (Some 2) (Serve.Lru.find c "b");
  Alcotest.(check int) "no eviction" 0 (Serve.Lru.stats c).Serve.Lru.evictions

let test_lru_rejects_bad_capacity () =
  Alcotest.check_raises "capacity 0" (Invalid_argument "Serve.Lru.create: capacity < 1")
    (fun () -> ignore (Serve.Lru.create ~capacity:0 ()))

(* The list-scan LRU that [Serve.Lru]'s hash index and recency list
   replaced, kept as the reference model: every entry carries a unique
   recency tick, a lookup scans all entries, and eviction takes the
   smallest tick. *)
module Model = struct
  type ('k, 'v) entry = {
    e_hash : int;
    e_key : 'k;
    mutable e_value : 'v;
    mutable e_tick : int;
  }

  type ('k, 'v) t = {
    cap : int;
    hash : 'k -> int;
    mutable entries : ('k, 'v) entry list;
    mutable tick : int;
    mutable hits : int;
    mutable misses : int;
    mutable insertions : int;
    mutable evictions : int;
  }

  let create ?(hash = Hashtbl.hash) ~capacity () =
    {
      cap = capacity;
      hash;
      entries = [];
      tick = 0;
      hits = 0;
      misses = 0;
      insertions = 0;
      evictions = 0;
    }

  let length t = List.length t.entries

  let next_tick t =
    t.tick <- t.tick + 1;
    t.tick

  let lookup t key =
    let h = t.hash key in
    List.find_opt (fun e -> e.e_hash = h && e.e_key = key) t.entries

  let find t key =
    match lookup t key with
    | Some e ->
      t.hits <- t.hits + 1;
      e.e_tick <- next_tick t;
      Some e.e_value
    | None ->
      t.misses <- t.misses + 1;
      None

  let evict_lru t =
    match t.entries with
    | [] -> ()
    | first :: rest ->
      let victim =
        List.fold_left (fun v e -> if e.e_tick < v.e_tick then e else v) first rest
      in
      t.entries <- List.filter (fun e -> e != victim) t.entries;
      t.evictions <- t.evictions + 1

  let add t key value =
    t.insertions <- t.insertions + 1;
    match lookup t key with
    | Some e ->
      e.e_value <- value;
      e.e_tick <- next_tick t
    | None ->
      if List.length t.entries >= t.cap then evict_lru t;
      t.entries <-
        { e_hash = t.hash key; e_key = key; e_value = value; e_tick = next_tick t }
        :: t.entries

  let remove_where t pred =
    let keep, removed = List.partition (fun e -> not (pred e.e_key)) t.entries in
    t.entries <- keep;
    List.length removed

  let stats t =
    {
      Serve.Lru.hits = t.hits;
      misses = t.misses;
      insertions = t.insertions;
      evictions = t.evictions;
    }
end

type lru_op = Find of int | Add of int * int | Remove_mod3 of int

let lru_op_to_string = function
  | Find k -> Printf.sprintf "find %d" k
  | Add (k, v) -> Printf.sprintf "add %d %d" k v
  | Remove_mod3 r -> Printf.sprintf "remove k mod 3 = %d" r

let lru_ops =
  let open QCheck.Gen in
  let key = int_range 0 11 in
  let op =
    frequency
      [
        (5, map (fun k -> Find k) key);
        (5, map2 (fun k v -> Add (k, v)) key (int_range 0 999));
        (1, map (fun r -> Remove_mod3 r) (int_range 0 2));
      ]
  in
  QCheck.make
    ~print:(fun (capacity, collide, ops) ->
      Printf.sprintf "capacity %d, %s hash: %s" capacity
        (if collide then "constant" else "default")
        (String.concat "; " (List.map lru_op_to_string ops)))
    (triple (int_range 1 16) bool (list_size (int_range 0 200) op))

let prop_lru_matches_model =
  (* Same find results, length and stats as the model after every
     step pins the eviction order; the constant hash puts every key in
     one bucket and pins collision honesty. *)
  QCheck.Test.make ~name:"Lru agrees with the list-scan model" ~count:500
    lru_ops (fun (capacity, collide, ops) ->
      let hash = if collide then Some (fun (_ : int) -> 0) else None in
      let lru = Serve.Lru.create ?hash ~capacity () in
      let model = Model.create ?hash ~capacity () in
      List.for_all
        (fun op ->
          let agree =
            match op with
            | Find k -> Serve.Lru.find lru k = Model.find model k
            | Add (k, v) ->
              Serve.Lru.add lru k v;
              Model.add model k v;
              true
            | Remove_mod3 r ->
              let pred k = k mod 3 = r in
              Serve.Lru.remove_where lru pred = Model.remove_where model pred
          in
          agree
          && Serve.Lru.length lru = Model.length model
          && Serve.Lru.stats lru = Model.stats model)
        ops)

(* -- cache keys ------------------------------------------------------- *)

let test_cache_digest_discriminates () =
  let a = Serve.Cache.digest "stream one"
  and b = Serve.Cache.digest "stream two" in
  Alcotest.(check bool) "digests differ" true (a <> b);
  Alcotest.(check bool) "digest deterministic" true
    (Serve.Cache.digest "stream one" = a)

(* -- workload specs --------------------------------------------------- *)

let test_spec_parse_defaults () =
  match Serve.Request.parse_spec "open:" with
  | Error e -> Alcotest.failf "unexpected parse error: %s" e
  | Ok spec ->
    Alcotest.(check int) "n" 64 spec.Serve.Request.n;
    Alcotest.(check int) "seed" 11 spec.Serve.Request.seed;
    Alcotest.(check (float 1e-9)) "deadline" 25.0 spec.Serve.Request.deadline_ms;
    Alcotest.(check string) "canonical"
      "open:n=64,rate=400,seed=11,deadline=25,region=0.25,reduced=0.25"
      (Serve.Request.spec_to_string spec)

let test_spec_parse_roundtrip () =
  let s = "closed:n=32,clients=2,think=1.5,seed=9,deadline=10,region=0.5,reduced=0.1" in
  match Serve.Request.parse_spec s with
  | Error e -> Alcotest.failf "unexpected parse error: %s" e
  | Ok spec ->
    Alcotest.(check string) "roundtrip" s (Serve.Request.spec_to_string spec)

let test_spec_parse_errors () =
  let rejected s =
    match Serve.Request.parse_spec s with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "unknown shape" true (rejected "poisson:n=4");
  Alcotest.(check bool) "unknown key" true (rejected "open:n=4,bogus=1");
  Alcotest.(check bool) "bad int" true (rejected "open:n=four");
  Alcotest.(check bool) "shape key mismatch" true (rejected "open:clients=2");
  Alcotest.(check bool) "n < 1" true (rejected "open:n=0");
  Alcotest.(check bool) "rate <= 0" true (rejected "open:rate=0");
  Alcotest.(check bool) "shares sum > 1" true
    (rejected "open:region=0.8,reduced=0.8");
  Alcotest.(check bool) "negative share" true (rejected "open:region=-0.1");
  Alcotest.(check bool) "bad deadline" true (rejected "open:deadline=0")

(* -- scalable-decode equivalences (the cache-key semantics) ---------- *)

let encode_smooth ~width ~height ~seed =
  let img = Jpeg2000.Image.smooth ~width ~height ~components:3 ~seed in
  let config =
    { Jpeg2000.Encoder.default_lossless with tile_w = 32; tile_h = 32; levels = 3 }
  in
  (Jpeg2000.Encoder.encode config img, img)

let crop image ~x ~y ~w ~h =
  let cropped =
    Jpeg2000.Image.create ~width:w ~height:h
      ~components:(Jpeg2000.Image.components image)
      ~bit_depth:image.Jpeg2000.Image.bit_depth ()
  in
  Array.iteri
    (fun c (src : Jpeg2000.Image.plane) ->
      let dst = cropped.Jpeg2000.Image.planes.(c) in
      for dy = 0 to h - 1 do
        for dx = 0 to w - 1 do
          Jpeg2000.Image.plane_set dst ~x:dx ~y:dy
            (Jpeg2000.Image.plane_get src ~x:(x + dx) ~y:(y + dy))
        done
      done)
    image.Jpeg2000.Image.planes;
  cropped

let prop_region_equals_crop =
  QCheck.Test.make ~name:"decode_region equals crop of full decode" ~count:25
    QCheck.(
      quad (int_range 33 96) (int_range 33 96) (int_range 0 1000) small_int)
    (fun (width, height, pos_seed, img_seed) ->
      let data, _ = encode_smooth ~width ~height ~seed:img_seed in
      let full = Jpeg2000.Decoder.decode data in
      let rng = Faults.Rng.create pos_seed in
      let w = 1 + Faults.Rng.int rng width in
      let h = 1 + Faults.Rng.int rng height in
      let x = Faults.Rng.int rng (width - w + 1) in
      let y = Faults.Rng.int rng (height - h + 1) in
      Jpeg2000.Image.equal
        (Jpeg2000.Decoder.decode_region ~x ~y ~w ~h data)
        (crop full ~x ~y ~w ~h))

let prop_staged_matches_reduced =
  (* The staged pipeline (the serving layer's unit of work) must be
     bit-identical to [decode_reduced] at every resolution level the
     degrade path can pick — this is what makes cache keys
     (digest, tile, discard) sound. *)
  QCheck.Test.make ~name:"staged decode equals decode_reduced" ~count:15
    QCheck.(pair (int_range 0 2) small_int)
    (fun (discard, img_seed) ->
      let data, _ = encode_smooth ~width:96 ~height:64 ~seed:img_seed in
      let stream = Jpeg2000.Codestream.parse data in
      let header = stream.Jpeg2000.Codestream.header in
      let tiles =
        List.map
          (fun seg ->
            let st = Jpeg2000.Decoder.stage_tile ~discard header seg in
            let results =
              Array.init (Jpeg2000.Decoder.staged_jobs st)
                (Jpeg2000.Decoder.staged_job st)
            in
            let tile, concealed = Jpeg2000.Decoder.finish_staged st results in
            assert (concealed = 0);
            tile)
          stream.Jpeg2000.Codestream.tiles
      in
      let assembled =
        Jpeg2000.Tile.assemble
          ~width:(Jpeg2000.Decoder.reduced_size header.Jpeg2000.Codestream.width discard)
          ~height:(Jpeg2000.Decoder.reduced_size header.Jpeg2000.Codestream.height discard)
          ~components:header.Jpeg2000.Codestream.components
          ~bit_depth:header.Jpeg2000.Codestream.bit_depth tiles
      in
      Jpeg2000.Image.equal assembled
        (Jpeg2000.Decoder.decode_reduced ~discard_levels:discard data))

(* -- service ---------------------------------------------------------- *)

let corpus () =
  Array.init 2 (fun i ->
      Models.Workload.codestream ~width:64 ~height:64 ~seed:(2008 + i)
        Jpeg2000.Codestream.Lossless)

let spec_exn s =
  match Serve.Request.parse_spec s with
  | Ok spec -> spec
  | Error e -> Alcotest.failf "bad spec %S: %s" s e

let report_string r =
  Telemetry.Json.to_string (Serve.Service.report_to_json r)

let test_service_same_seed_identical () =
  let service = Serve.Service.create (corpus ()) in
  let spec = spec_exn "open:n=24,rate=800,seed=5" in
  let a = Serve.Service.run service spec in
  let service2 = Serve.Service.create (corpus ()) in
  let b = Serve.Service.run service2 spec in
  Alcotest.(check string) "same seed, same report" (report_string a)
    (report_string b);
  let c = Serve.Service.run service2 (spec_exn "open:n=24,rate=800,seed=6") in
  Alcotest.(check bool) "different seed, different digest" true
    (a.Serve.Service.pixels_digest <> c.Serve.Service.pixels_digest)

let test_service_jobs_invariant () =
  (* The report and every served image must be independent of the
     worker count. *)
  let spec = spec_exn "closed:n=20,clients=3,think=0.5,seed=13" in
  let run_with jobs =
    let images = ref [] in
    let service = Serve.Service.create (corpus ()) in
    let report =
      Par.Pool.with_jobs jobs (fun pool ->
          Serve.Service.run ~pool
            ~on_complete:(fun r img -> images := (r.Serve.Request.id, img) :: !images)
            service spec)
    in
    (report_string report, List.rev !images)
  in
  let ra, ia = run_with 1 in
  let rb, ib = run_with 2 in
  let rc, ic = run_with 4 in
  Alcotest.(check string) "jobs=2 report" ra rb;
  Alcotest.(check string) "jobs=4 report" ra rc;
  let same (id1, img1) (id2, img2) = id1 = id2 && Jpeg2000.Image.equal img1 img2 in
  Alcotest.(check bool) "jobs=2 images" true (List.for_all2 same ia ib);
  Alcotest.(check bool) "jobs=4 images" true (List.for_all2 same ia ic)

let test_service_matches_reference_decoder () =
  (* Every served image must equal what the reference decoder
     produces for the request's (possibly degraded) target. *)
  let streams = corpus () in
  let service = Serve.Service.create streams in
  let checked = ref 0 in
  let report =
    Serve.Service.run
      ~on_complete:(fun r img ->
        let data = streams.(r.Serve.Request.stream) in
        let reference =
          match r.Serve.Request.target with
          | Serve.Request.Full -> Jpeg2000.Decoder.decode data
          | Serve.Request.Region { rx; ry; rw; rh } ->
            Jpeg2000.Decoder.decode_region ~x:rx ~y:ry ~w:rw ~h:rh data
          | Serve.Request.Reduced { discard } ->
            Jpeg2000.Decoder.decode_reduced ~discard_levels:discard data
        in
        incr checked;
        if not (Jpeg2000.Image.equal img reference) then
          Alcotest.failf "request %d (%s) diverges from the reference decoder"
            r.Serve.Request.id
            (Format.asprintf "%a" Serve.Request.pp_target r.Serve.Request.target))
      service
      (spec_exn "open:n=30,rate=600,seed=21")
  in
  Alcotest.(check int) "all served requests checked" report.Serve.Service.served
    !checked;
  Alcotest.(check bool) "exercised the cache" true
    (report.Serve.Service.cache_hits > 0)

let test_service_counters_balance () =
  let service = Serve.Service.create (corpus ()) in
  let r = Serve.Service.run service (spec_exn "open:n=40,rate=1500,seed=3") in
  Alcotest.(check int) "total = served + rejected + dropped"
    r.Serve.Service.total
    (r.Serve.Service.served + r.Serve.Service.rejected + r.Serve.Service.dropped)

(* Recorded from the list-scan LRU, the per-sample region crop and the
   closure-folded pixel digest: the report of a run whose cache evicts
   and whose requests mix region and reduced targets must not move by
   a byte. *)
let golden_report =
  "{\"workload\":\"open:n=48,rate=900,seed=23,deadline=25,region=0.4,reduced=0.3\",\"streams\":2,\"policy\":\"reject\",\"queue_capacity\":32,\"cache_capacity\":12,\"max_batch\":8,\"total\":48,\"served\":48,\"rejected\":0,\"dropped\":0,\"degraded\":0,\"batches\":47,\"coalesced\":0,\"concealed_blocks\":0,\"makespan_ms\":64.81528535,\"throughput_rps\":740.566052295,\"latency_ms\":{\"mean\":0.437633789771,\"p50\":0.351245,\"p95\":0.793763,\"p99\":1.447935697,\"max\":1.447935697},\"slo_misses\":0,\"slo_miss_rate\":0,\"cache\":{\"hits\":71,\"misses\":198,\"evictions\":186,\"hit_rate\":0.263940520446},\"ingest\":null,\"pixels_digest\":\"bd6699c9593e1e47\"}"

let test_service_golden_report () =
  let streams =
    Array.init 2 (fun i ->
        Models.Workload.codestream ~width:80 ~height:72 ~seed:(2008 + i)
          Jpeg2000.Codestream.Lossless)
  in
  let config =
    { Serve.Service.default_config with Serve.Service.cache_capacity = 12 }
  in
  let r =
    Serve.Service.run
      (Serve.Service.create ~config streams)
      (spec_exn "open:n=48,rate=900,seed=23,region=0.4,reduced=0.3")
  in
  Alcotest.(check bool) "cache evicts" true (r.Serve.Service.cache_evictions > 0);
  Alcotest.(check string) "report byte-identical" golden_report (report_string r)

let overload_config policy =
  {
    Serve.Service.default_config with
    Serve.Service.queue_capacity = 4;
    overload = policy;
    cache_capacity = 8;
  }

let stress_spec = "open:n=80,rate=4000,seed=17"

let test_policy_reject () =
  let service =
    Serve.Service.create ~config:(overload_config Serve.Service.Reject) (corpus ())
  in
  let r = Serve.Service.run service (spec_exn stress_spec) in
  Alcotest.(check bool) "rejects under overload" true (r.Serve.Service.rejected > 0);
  Alcotest.(check int) "never drops" 0 r.Serve.Service.dropped;
  Alcotest.(check bool) "refusals count as SLO misses" true
    (r.Serve.Service.slo_misses >= r.Serve.Service.rejected)

let test_policy_drop_oldest () =
  let service =
    Serve.Service.create
      ~config:(overload_config Serve.Service.Drop_oldest)
      (corpus ())
  in
  let r = Serve.Service.run service (spec_exn stress_spec) in
  Alcotest.(check bool) "drops under overload" true (r.Serve.Service.dropped > 0);
  Alcotest.(check int) "never rejects" 0 r.Serve.Service.rejected

let test_policy_degrade () =
  let service =
    Serve.Service.create ~config:(overload_config Serve.Service.Degrade) (corpus ())
  in
  let r = Serve.Service.run service (spec_exn stress_spec) in
  Alcotest.(check bool) "degrades under overload" true
    (r.Serve.Service.degraded > 0)

(* -- ingest ------------------------------------------------------------ *)

let ingest_config s =
  match Faults.Ingest.parse_spec s with
  | Ok spec ->
    { Serve.Service.default_config with Serve.Service.ingest = Some spec }
  | Error e -> Alcotest.failf "bad ingest spec: %s" e

let test_ingest_jobs_invariant () =
  (* Faulted ingest reports must stay byte-identical across worker
     counts, like everything else the service prints. *)
  let spec = spec_exn "open:n=24,rate=600,seed=11,deadline=6" in
  let config =
    ingest_config
      "chunk=256,gap_us=300,loss=0.05,dup=0.05,reorder=0.1,stall=0.2,stall_us=2000"
  in
  let run_with jobs =
    let service = Serve.Service.create ~config (corpus ()) in
    report_string
      (Par.Pool.with_jobs jobs (fun pool ->
           Serve.Service.run ~pool service spec))
  in
  let a = run_with 1 in
  Alcotest.(check string) "jobs=2 byte-equal" a (run_with 2);
  Alcotest.(check string) "jobs=4 byte-equal" a (run_with 4);
  let service = Serve.Service.create ~config (corpus ()) in
  let r = Serve.Service.run service spec in
  Alcotest.(check string) "rerun byte-equal" a (report_string r);
  match r.Serve.Service.ingest with
  | None -> Alcotest.fail "report lacks ingest stats"
  | Some i ->
    Alcotest.(check bool) "chunks lost" true
      (i.Serve.Service.ing_chunks_lost > 0);
    Alcotest.(check bool) "flushes happened" true
      (i.Serve.Service.ing_flushed > 0);
    Alcotest.(check bool) "tiles concealed" true
      (i.Serve.Service.ing_flush_concealed_tiles > 0);
    Alcotest.(check bool) "psnr impact finite" true
      (Float.is_finite i.Serve.Service.ing_flush_psnr_db)

let test_ingest_flush_equals_robust_prefix () =
  (* A deadline flush must serve exactly decode_robust of the
     contiguous prefix the stream had delivered. *)
  let config = ingest_config "chunk=256,loss=0.1,stall=0.3,stall_us=3000" in
  let service = Serve.Service.create ~config (corpus ()) in
  let flushes = ref 0 in
  let report =
    Serve.Service.run
      ~on_flush:(fun _r ~prefix img ->
        incr flushes;
        match Jpeg2000.Decoder.decode_robust prefix with
        | Ok (want, _) ->
          if not (Jpeg2000.Image.equal img want) then
            Alcotest.fail "flush image diverges from decode_robust of prefix"
        | Error _ -> Alcotest.fail "flushed prefix did not robust-decode")
      service
      (spec_exn "open:n=20,rate=500,seed=9,deadline=5")
  in
  Alcotest.(check bool) "some requests flushed" true (!flushes > 0);
  (match report.Serve.Service.ingest with
  | Some i ->
    Alcotest.(check int) "flush count matches" !flushes
      i.Serve.Service.ing_flushed
  | None -> Alcotest.fail "report lacks ingest stats");
  Alcotest.(check int) "counters still balance" report.Serve.Service.total
    (report.Serve.Service.served + report.Serve.Service.rejected
   + report.Serve.Service.dropped)

let test_ingest_clean_streaming_serves_all () =
  (* Fault-free streaming under a roomy deadline: delivery only adds
     latency; every request is served by the normal path. *)
  let config = ingest_config "" in
  let service = Serve.Service.create ~config (corpus ()) in
  let r =
    Serve.Service.run service (spec_exn "open:n=16,rate=300,seed=4,deadline=60")
  in
  Alcotest.(check int) "all served" r.Serve.Service.total r.Serve.Service.served;
  match r.Serve.Service.ingest with
  | Some i ->
    Alcotest.(check int) "no flushes" 0 i.Serve.Service.ing_flushed;
    Alcotest.(check int) "no loss" 0 i.Serve.Service.ing_chunks_lost;
    Alcotest.(check bool) "bytes accounted" true
      (i.Serve.Service.ing_bytes > 0)
  | None -> Alcotest.fail "report lacks ingest stats"

(* -- profiling ------------------------------------------------------- *)

let test_profile_jobs_and_rerun_identical () =
  (* The cost tree is built from virtual-time spans emitted on the
     coordinating domain, so the collapsed flamegraph text must be
     byte-identical across worker counts and across reruns. *)
  let spec = spec_exn "open:n=24,rate=600,seed=11" in
  let run_with jobs =
    let service = Serve.Service.create (corpus ()) in
    let sink, _report =
      Telemetry.Sink.with_sink (fun () ->
          Par.Pool.with_jobs jobs (fun pool ->
              Serve.Service.run ~pool service spec))
    in
    Telemetry.Profile.collapsed
      (Telemetry.Profile.of_events (Telemetry.Sink.events sink))
  in
  let a = run_with 1 in
  Alcotest.(check bool) "tree is non-trivial" true (String.length a > 1);
  Alcotest.(check string) "jobs=2 byte-identical" a (run_with 2);
  Alcotest.(check string) "jobs=4 byte-identical" a (run_with 4);
  Alcotest.(check string) "rerun byte-identical" a (run_with 1)

let test_profile_stage_spans_tile_requests () =
  (* Stage child spans (cache/entropy/reconstruct/assemble) must tile
     each request span exactly: the tree invariant holds and the
     request nodes carry no unattributed self time. *)
  let service = Serve.Service.create (corpus ()) in
  let sink, _ =
    Telemetry.Sink.with_sink (fun () ->
        Serve.Service.run service (spec_exn "open:n=30,rate=600,seed=21"))
  in
  let p = Telemetry.Profile.of_events (Telemetry.Sink.events sink) in
  Alcotest.(check bool) "invariant" true (Telemetry.Profile.invariant p);
  match Telemetry.Profile.find p "serve.exec;request" with
  | None -> Alcotest.fail "no request node under serve.exec"
  | Some n ->
    Alcotest.(check bool) "requests profiled" true
      (n.Telemetry.Profile.count > 0);
    Alcotest.(check int) "stages tile the request span exactly" 0
      n.Telemetry.Profile.self_ps;
    Alcotest.(check bool) "stage children present" true
      (List.exists
         (fun c -> c.Telemetry.Profile.name = "entropy")
         n.Telemetry.Profile.children)

let test_profile_p99_exemplar_resolves () =
  (* The latency histogram's tail exemplar must name a request whose
     trace id recomputes from (seed, id) — the link from a p99 line
     back to that request's spans. *)
  let spec = spec_exn "open:n=30,rate=600,seed=21" in
  let service = Serve.Service.create (corpus ()) in
  let sink, _ =
    Telemetry.Sink.with_sink (fun () -> Serve.Service.run service spec)
  in
  let report = Telemetry.Sink.report sink in
  match Telemetry.Report.dist report "serve.latency_us" with
  | None -> Alcotest.fail "no serve.latency_us histogram"
  | Some d -> (
    match Telemetry.Report.quantile_exemplar d 0.99 with
    | None -> Alcotest.fail "p99 exemplar missing"
    | Some e ->
      let id = e.Telemetry.Metrics.ex_id in
      let expected =
        Serve.Request.trace_to_string
          (Serve.Request.trace_id ~seed:spec.Serve.Request.seed id)
      in
      Alcotest.(check string) "exemplar trace matches trace_id(seed, id)"
        expected e.Telemetry.Metrics.ex_trace;
      (* And that trace id is attached to the request's exec span. *)
      let tagged =
        List.exists
          (fun ev ->
            List.exists
              (fun (k, v) ->
                k = "trace"
                && v = Telemetry.Event.Str e.Telemetry.Metrics.ex_trace)
              ev.Telemetry.Event.args)
          (Telemetry.Sink.events sink)
      in
      Alcotest.(check bool) "trace id appears in span args" true tagged)

let test_policy_names_roundtrip () =
  List.iter
    (fun p ->
      match Serve.Service.overload_of_string (Serve.Service.overload_to_string p) with
      | Ok p' -> Alcotest.(check bool) "roundtrip" true (p = p')
      | Error e -> Alcotest.fail e)
    [ Serve.Service.Reject; Serve.Service.Drop_oldest; Serve.Service.Degrade ];
  Alcotest.(check bool) "unknown name rejected" true
    (Result.is_error (Serve.Service.overload_of_string "lifo"))

let () =
  Alcotest.run "serve"
    [
      ( "lru",
        [
          Alcotest.test_case "capacity one" `Quick test_lru_capacity_one;
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "collision honesty" `Quick test_lru_collision_honesty;
          Alcotest.test_case "replace in place" `Quick test_lru_replace_in_place;
          Alcotest.test_case "bad capacity" `Quick test_lru_rejects_bad_capacity;
          Alcotest.test_case "digest" `Quick test_cache_digest_discriminates;
          qc prop_lru_matches_model;
        ] );
      ( "workload specs",
        [
          Alcotest.test_case "defaults" `Quick test_spec_parse_defaults;
          Alcotest.test_case "roundtrip" `Quick test_spec_parse_roundtrip;
          Alcotest.test_case "errors" `Quick test_spec_parse_errors;
        ] );
      ( "scalable decode",
        [ qc prop_region_equals_crop; qc prop_staged_matches_reduced ] );
      ( "service",
        [
          Alcotest.test_case "same seed identical" `Quick
            test_service_same_seed_identical;
          Alcotest.test_case "jobs invariant" `Quick test_service_jobs_invariant;
          Alcotest.test_case "matches reference decoder" `Quick
            test_service_matches_reference_decoder;
          Alcotest.test_case "counters balance" `Quick test_service_counters_balance;
          Alcotest.test_case "golden report" `Quick test_service_golden_report;
        ] );
      ( "overload policies",
        [
          Alcotest.test_case "reject" `Quick test_policy_reject;
          Alcotest.test_case "drop-oldest" `Quick test_policy_drop_oldest;
          Alcotest.test_case "degrade" `Quick test_policy_degrade;
          Alcotest.test_case "names" `Quick test_policy_names_roundtrip;
        ] );
      ( "profiling",
        [
          Alcotest.test_case "collapsed tree jobs/rerun invariant" `Quick
            test_profile_jobs_and_rerun_identical;
          Alcotest.test_case "stage spans tile requests" `Quick
            test_profile_stage_spans_tile_requests;
          Alcotest.test_case "p99 exemplar resolves to a trace" `Quick
            test_profile_p99_exemplar_resolves;
        ] );
      ( "ingest",
        [
          Alcotest.test_case "jobs/rerun invariant" `Quick
            test_ingest_jobs_invariant;
          Alcotest.test_case "flush equals robust prefix" `Quick
            test_ingest_flush_equals_robust_prefix;
          Alcotest.test_case "clean streaming serves all" `Quick
            test_ingest_clean_streaming_serves_all;
        ] );
    ]
