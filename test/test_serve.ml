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
  Alcotest.(check bool) "bad deadline" true (rejected "open:deadline=0");
  (* NaN passes any hand-written comparison, and an infinite rate or
     deadline cannot be timed: every float field refuses both and names
     the value. *)
  List.iter
    (fun (s, value) ->
      match Serve.Request.parse_spec s with
      | Ok _ -> Alcotest.failf "%s accepted" s
      | Error msg ->
        if not (Str_util.contains msg value) then
          Alcotest.failf "%s: %S does not name %s" s msg value)
    [
      ("open:n=4,rate=nan", "rate=nan");
      ("open:n=4,rate=inf", "rate=inf");
      ("open:n=4,deadline=nan", "deadline=nan");
      ("open:n=4,deadline=inf", "deadline=inf");
      ("open:n=4,region=nan", "region=nan");
      ("open:n=4,reduced=inf", "reduced=inf");
      ("closed:n=4,think=nan", "think=nan");
      ("closed:n=4,think=inf", "think=inf");
    ]

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
     decoder accepts, [discard = levels] (LL only) included — this is
     what makes cache keys (digest, tile, discard) sound. *)
  QCheck.Test.make ~name:"staged decode equals decode_reduced" ~count:15
    QCheck.(pair (int_range 0 3) small_int)
    (fun (discard, img_seed) ->
      let data, _ = encode_smooth ~width:96 ~height:64 ~seed:img_seed in
      let stream = Result.get_ok (Jpeg2000.Codestream.parse_result data) in
      let header = stream.Jpeg2000.Codestream.header in
      let tiles =
        List.map
          (fun seg ->
            let st = Jpeg2000.Decoder.stage_tile ~discard header seg in
            let oks =
              Array.init (Jpeg2000.Decoder.staged_jobs st)
                (Jpeg2000.Decoder.staged_run st)
            in
            let tile, concealed = Jpeg2000.Decoder.finish_staged_ok st oks in
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

(* Reports recorded with the Stream-driven ingest analysis and the
   two-parse robust flush, before readiness moved to the per-stream
   layout: the faulted configs above (loss, dup, reorder, stall;
   flushes with concealed tiles) and a roomier deadline where region
   requests are dispatched on tile readiness and others flush. *)
let golden_ingest_reports =
  [
    ( "chunk=256,gap_us=300,loss=0.05,dup=0.05,reorder=0.1,stall=0.2,stall_us=2000",
      "open:n=24,rate=600,seed=11,deadline=6",
      "{\"workload\":\"open:n=24,rate=600,seed=11,deadline=6,region=0.25,reduced=0.25\",\"streams\":2,\"policy\":\"reject\",\"queue_capacity\":32,\"cache_capacity\":128,\"max_batch\":8,\"total\":24,\"served\":24,\"rejected\":0,\"dropped\":0,\"degraded\":0,\"batches\":24,\"coalesced\":0,\"concealed_blocks\":0,\"makespan_ms\":56.228951789,\"throughput_rps\":426.826381008,\"latency_ms\":{\"mean\":6.35428645454,\"p50\":6.36296,\"p95\":6.43208,\"p99\":6.47816,\"max\":6.47816},\"slo_misses\":24,\"slo_miss_rate\":1,\"cache\":{\"hits\":0,\"misses\":0,\"evictions\":0,\"hit_rate\":0},\"ingest\":{\"spec\":\"chunk=256,gap_us=300,loss=0.05,dup=0.05,reorder=0.1,window=4,stall=0.2,stall_us=2000\",\"chunks_sent\":1577,\"chunks_lost\":81,\"chunks_duped\":77,\"chunks_reordered\":162,\"stall_ms\":286.449402591,\"bytes_received\":381062,\"flushed\":24,\"flush_failed\":0,\"flush_concealed_blocks\":0,\"flush_concealed_tiles\":93,\"flush_psnr_db\":12.3942779561},\"pixels_digest\":\"92976f2b542f361a\"}" );
    ( "chunk=256,loss=0.1,stall=0.3,stall_us=3000",
      "open:n=20,rate=500,seed=9,deadline=5",
      "{\"workload\":\"open:n=20,rate=500,seed=9,deadline=5,region=0.25,reduced=0.25\",\"streams\":2,\"policy\":\"reject\",\"queue_capacity\":32,\"cache_capacity\":128,\"max_batch\":8,\"total\":20,\"served\":19,\"rejected\":0,\"dropped\":1,\"degraded\":0,\"batches\":20,\"coalesced\":0,\"concealed_blocks\":0,\"makespan_ms\":37.721078749,\"throughput_rps\":503.69715369,\"latency_ms\":{\"mean\":5.33592927189,\"p50\":5.31688,\"p95\":5.547502482,\"p99\":5.547502482,\"max\":5.547502482},\"slo_misses\":20,\"slo_miss_rate\":1,\"cache\":{\"hits\":0,\"misses\":0,\"evictions\":0,\"hit_rate\":0},\"ingest\":{\"spec\":\"chunk=256,gap_us=100,loss=0.1,dup=0,reorder=0,window=4,stall=0.3,stall_us=3000\",\"chunks_sent\":1368,\"chunks_lost\":130,\"chunks_duped\":0,\"chunks_reordered\":0,\"stall_ms\":620.270180444,\"bytes_received\":315468,\"flushed\":19,\"flush_failed\":1,\"flush_concealed_blocks\":0,\"flush_concealed_tiles\":76,\"flush_psnr_db\":12.3942779561},\"pixels_digest\":\"2482650c82b6fe60\"}" );
    ( "chunk=256,gap_us=100,dup=0.1,reorder=0.2,window=6,stall=0.1,stall_us=2000",
      "open:n=24,rate=600,seed=11,deadline=10,region=0.4",
      "{\"workload\":\"open:n=24,rate=600,seed=11,deadline=10,region=0.4,reduced=0.25\",\"streams\":2,\"policy\":\"reject\",\"queue_capacity\":32,\"cache_capacity\":128,\"max_batch\":8,\"total\":24,\"served\":24,\"rejected\":0,\"dropped\":0,\"degraded\":0,\"batches\":24,\"coalesced\":0,\"concealed_blocks\":0,\"makespan_ms\":62.365487124,\"throughput_rps\":384.828229631,\"latency_ms\":{\"mean\":9.90222778062,\"p50\":10.77768,\"p95\":11.000366629,\"p99\":11.03112,\"max\":11.03112},\"slo_misses\":18,\"slo_miss_rate\":0.75,\"cache\":{\"hits\":7,\"misses\":20,\"evictions\":0,\"hit_rate\":0.259259259259},\"ingest\":{\"spec\":\"chunk=256,gap_us=100,loss=0,dup=0.1,reorder=0.2,window=6,stall=0.1,stall_us=2000\",\"chunks_sent\":1558,\"chunks_lost\":0,\"chunks_duped\":134,\"chunks_reordered\":311,\"stall_ms\":129.146660158,\"bytes_received\":396480,\"flushed\":15,\"flush_failed\":0,\"flush_concealed_blocks\":0,\"flush_concealed_tiles\":22,\"flush_psnr_db\":15.6655966122},\"pixels_digest\":\"78a130023398b122\"}" );
  ]

let test_ingest_golden_reports () =
  List.iter
    (fun (ingest, workload, golden) ->
      let service =
        Serve.Service.create ~config:(ingest_config ingest) (corpus ())
      in
      Alcotest.(check string)
        (Printf.sprintf "%s / %s byte-identical" ingest workload)
        golden
        (report_string (Serve.Service.run service (spec_exn workload))))
    golden_ingest_reports

(* The reference for the layout walk: every time the contiguous prefix
   grows, the whole received prefix is read again by
   [Codestream.parse_prefix], and readiness is read off that parse. *)
module Prefix_model = struct
  type t = {
    data : string;
    dlv : Faults.Ingest.delivery;
    tile_landed : (int, int) Hashtbl.t;
    complete : int;
    prefix_steps : (int * int) array;
    received : int;
  }

  let analyse ~seed spec ~start_ps data =
    let len = String.length data in
    let dlv = Faults.Ingest.schedule ~seed spec ~start_ps len in
    let chunk = spec.Faults.Ingest.chunk_bytes in
    let nchunks = (len + chunk - 1) / chunk in
    let got = Array.make (Stdlib.max 1 nchunks) false in
    let frontier = ref 0 in
    let tile_landed = Hashtbl.create 16 in
    let ready = ref 0 in
    let complete = ref max_int in
    let steps = ref [ (min_int, 0) ] in
    let received = ref 0 in
    List.iter
      (fun (c : Faults.Ingest.chunk) ->
        let i = c.Faults.Ingest.c_offset / chunk in
        if not got.(i) then begin
          got.(i) <- true;
          received := !received + c.Faults.Ingest.c_length;
          let from = !frontier in
          while !frontier < nchunks && got.(!frontier) do incr frontier done;
          if !frontier > from then begin
            let hi = Stdlib.min len (!frontier * chunk) in
            steps := (c.Faults.Ingest.c_arrival_ps, hi) :: !steps;
            let now_ready =
              List.length
                (Jpeg2000.Codestream.parse_prefix (String.sub data 0 hi))
                  .Jpeg2000.Codestream.segments
            in
            for ti = !ready to now_ready - 1 do
              Hashtbl.replace tile_landed ti c.Faults.Ingest.c_arrival_ps
            done;
            ready := now_ready;
            if hi = len && !complete = max_int then
              complete := c.Faults.Ingest.c_arrival_ps
          end
        end)
      dlv.Faults.Ingest.chunks;
    {
      data;
      dlv;
      tile_landed;
      complete = !complete;
      prefix_steps = Array.of_list (List.rev !steps);
      received = !received;
    }

  let tile_landed_ps t i =
    Option.value (Hashtbl.find_opt t.tile_landed i) ~default:max_int

  let prefix_at t instant =
    let best = ref 0 in
    Array.iter
      (fun (ts, n) -> if ts <= instant && n > !best then best := n)
      t.prefix_steps;
    String.sub t.data 0 !best
end

let test_ingest_damaged_stream () =
  (* A damaged tile behind a clean one, all inside the first chunk:
     tile 0 lands with that chunk and the tiles from the damage on
     never do. *)
  let data =
    Models.Workload.codestream ~width:64 ~height:64 ~seed:3
      Jpeg2000.Codestream.Lossless
  in
  let ends =
    List.map snd (Jpeg2000.Codestream.parse_prefix data).Jpeg2000.Codestream.segments
  in
  let tile0_end = List.hd ends in
  Alcotest.(check int) "tiles" 4 (List.length ends);
  Alcotest.(check int) "tile 0 end" 4371 tile0_end;
  (* tile 1's width field: index u16, x0 u32, y0 u32, then width u16 *)
  let damaged = Bytes.of_string data in
  Bytes.set damaged (tile0_end + 10) '\000';
  Bytes.set damaged (tile0_end + 11) '\000';
  let damaged = Bytes.to_string damaged in
  let spec = { Faults.Ingest.default_spec with Faults.Ingest.chunk_bytes = 65536 } in
  let t = Serve.Ingest.analyse ~seed:1 spec ~start_ps:0 damaged in
  let first =
    (List.hd (Serve.Ingest.delivery t).Faults.Ingest.chunks).Faults.Ingest.c_arrival_ps
  in
  Alcotest.(check int) "tile 0 lands with the first chunk" first
    (Serve.Ingest.tile_landed_ps t 0);
  List.iter
    (fun i ->
      Alcotest.(check int) (Printf.sprintf "tile %d never lands" i) max_int
        (Serve.Ingest.tile_landed_ps t i))
    [ 1; 2; 3 ]

(* A small codestream — clean, truncated, byte-flipped, followed by
   junk, or followed by a repeat of its own tile segments (trailing
   bytes that parse) — and a faulted ingest spec. The model re-parses
   the received prefix whenever it grows, so a chunk is at least 1/256
   of the stream. *)
let ingest_draw =
  let open QCheck.Gen in
  let* lossy = bool in
  let* components = int_range 1 3 in
  let* tile_w = int_range 8 32 in
  let* tile_h = int_range 8 32 in
  let* width = int_range 8 40 in
  let* height = int_range 8 40 in
  let* levels = int_range 0 2 in
  let* img_seed = int_range 0 9999 in
  let* variant = int_range 0 4 in
  let* a = int_range 0 999_999 in
  let* b = int_range 1 255 in
  let* junk = string_size ~gen:char (int_range 1 16) in
  let* chunk = oneof [ int_range 1 64; int_range 1 4096 ] in
  let rate = oneof [ return 0.0; float_range 0.0 0.3 ] in
  let* loss = rate in
  let* dup = rate in
  let* reorder = rate in
  let* window = int_range 1 6 in
  let* stall = rate in
  let* seed = int_range 0 1_000_000 in
  let* start_ps = int_range 0 1_000_000_000 in
  let image =
    Jpeg2000.Image.smooth ~width ~height ~components ~seed:img_seed
  in
  let config =
    {
      Jpeg2000.Encoder.tile_w;
      tile_h;
      levels;
      mode = (if lossy then Jpeg2000.Codestream.Lossy else Lossless);
      base_step = 2.0;
      code_block = 8;
    }
  in
  let clean = Jpeg2000.Encoder.encode config image in
  let n = String.length clean in
  let data =
    match variant with
    | 0 -> clean
    | 1 -> String.sub clean 0 (a mod (n + 1))
    | 2 ->
      let flipped = Bytes.of_string clean in
      let i = a mod n in
      Bytes.set flipped i (Char.chr (Char.code clean.[i] lxor b));
      Bytes.to_string flipped
    | 3 -> clean ^ junk
    | _ -> (
      match Jpeg2000.Codestream.parse_result clean with
      | Ok s ->
        let pos =
          String.length
            (Jpeg2000.Codestream.emit { s with Jpeg2000.Codestream.tiles = [] })
        in
        clean ^ String.sub clean pos (n - pos)
      | Error _ -> clean)
  in
  let spec =
    {
      Faults.Ingest.default_spec with
      Faults.Ingest.chunk_bytes = Stdlib.max chunk (String.length data / 256);
      profile =
        {
          Faults.Ingest.default_spec.Faults.Ingest.profile with
          Faults.Ingest.loss;
          dup;
          reorder;
          window;
          stall;
        };
    }
  in
  return (variant, data, spec, seed, start_ps)

let print_ingest_draw (variant, data, spec, seed, start_ps) =
  Printf.sprintf "variant=%d bytes=%d spec=%s seed=%d start_ps=%d" variant
    (String.length data) (Faults.Ingest.spec_to_string spec) seed start_ps

let test_ingest_layout_matches_prefix_model () =
  (* The layout walk must report what re-reading every received prefix
     reports, at every observable point. *)
  let prop =
    QCheck.Test.make ~name:"layout walk equals the prefix re-parse model"
      ~count:500
      (QCheck.make ~print:print_ingest_draw ingest_draw)
      (fun (_, data, spec, seed, start_ps) ->
        let t = Serve.Ingest.analyse ~seed spec ~start_ps data in
        let m = Prefix_model.analyse ~seed spec ~start_ps data in
        let ntiles =
          match (Jpeg2000.Codestream.parse_prefix data).Jpeg2000.Codestream.header with
          | None -> 0
          | Some header ->
            let rec cells k =
              if Jpeg2000.Codestream.grid_cell header k = None then k
              else cells (k + 1)
            in
            cells 0
        in
        let instants =
          Array.to_list m.Prefix_model.prefix_steps
          |> List.filter_map (fun (ts, _) ->
                 if ts = min_int then None else Some ts)
          |> List.concat_map (fun ts -> [ ts - 1; ts ])
        in
        Serve.Ingest.delivery t = m.Prefix_model.dlv
        && List.for_all
             (fun i ->
               Serve.Ingest.tile_landed_ps t i = Prefix_model.tile_landed_ps m i)
             (List.init (ntiles + 3) (fun i -> i - 1))
        && Serve.Ingest.complete_ps t = m.Prefix_model.complete
        && Serve.Ingest.bytes_received t = m.Prefix_model.received
        && List.for_all
             (fun ts -> Serve.Ingest.prefix_at t ts = Prefix_model.prefix_at m ts)
             instants)
  in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 14 |]) prop

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

(* -- goldens over the CLI corpus ------------------------------------- *)

(* The corpus [osss_sim serve] builds: default-size streams seeded
   2008, 2009, ... *)
let cli_corpus ?(mode = Jpeg2000.Codestream.Lossless) streams =
  Array.init streams (fun i -> Models.Workload.codestream ~seed:(2008 + i) mode)

let cli_config ?(queue = 32) ?(policy = Serve.Service.Reject) ?(cache = 128)
    ?(batch = 8) ?ingest () =
  {
    Serve.Service.queue_capacity = queue;
    overload = policy;
    cache_capacity = cache;
    max_batch = batch;
    ingest =
      Option.map
        (fun s ->
          match Faults.Ingest.parse_spec s with
          | Ok spec -> spec
          | Error e -> Alcotest.failf "bad ingest spec: %s" e)
        ingest;
  }

let s1_config = cli_config ~policy:Serve.Service.Degrade ~queue:8 ()
let s1_workload = "open:n=48,rate=2000,seed=11"

let s2_config =
  cli_config ~policy:Serve.Service.Drop_oldest ~queue:4 ~cache:8 ()

let s2_workload = "open:n=80,rate=4000,seed=17"
let s3_config = cli_config ~queue:4 ~cache:0 ~batch:1 ()
let s3_workload = s2_workload
let s4_config = cli_config ~policy:Serve.Service.Degrade ~queue:3 ()
let s4_workload = "closed:n=60,clients=4,think=1,seed=5,region=0.3,reduced=0.3"

let s5_config =
  cli_config
    ~ingest:"chunk=256,loss=0.05,dup=0.05,reorder=0.1,stall=0.2,stall_us=2000"
    ()

let s5_workload = "closed:n=40,clients=3,think=2,seed=9,deadline=6"

(* Recorded before the service and the fleet shared one engine: an
   evicting drop-oldest run, a cacheless reject run with batches of
   one, a degrading closed loop over mixed targets, and a faulted
   ingest closed loop with flushes and one flush failure. *)
let cli_goldens =
  [
    ( "S2 drop-oldest",
      s2_config,
      s2_workload,
      {|{"workload":"open:n=80,rate=4000,seed=17,deadline=25,region=0.25,reduced=0.25","streams":3,"policy":"drop-oldest","queue_capacity":4,"cache_capacity":8,"max_batch":8,"total":80,"served":25,"rejected":0,"dropped":55,"degraded":0,"batches":7,"coalesced":39,"concealed_blocks":0,"makespan_ms":32.334010438,"throughput_rps":773.179684838,"latency_ms":{"mean":4.58750332904,"p50":4.66699387,"p95":8.292726261,"p99":9.190387058,"max":9.190387058},"slo_misses":55,"slo_miss_rate":0.6875,"cache":{"hits":36,"misses":290,"evictions":243,"hit_rate":0.110429447853},"ingest":null,"pixels_digest":"adac59249c1e2d4e"}|}
    );
    ( "S3 reject, no cache, batch 1",
      s3_config,
      s3_workload,
      {|{"workload":"open:n=80,rate=4000,seed=17,deadline=25,region=0.25,reduced=0.25","streams":3,"policy":"reject","queue_capacity":4,"cache_capacity":0,"max_batch":1,"total":80,"served":21,"rejected":59,"dropped":0,"degraded":0,"batches":21,"coalesced":0,"concealed_blocks":0,"makespan_ms":30.178004438,"throughput_rps":695.871062089,"latency_ms":{"mean":5.89846810567,"p50":5.956159337,"p95":7.90395885,"p99":9.045534964,"max":9.045534964},"slo_misses":59,"slo_miss_rate":0.7375,"cache":{"hits":0,"misses":0,"evictions":0,"hit_rate":0},"ingest":null,"pixels_digest":"03b44f8a652b7270"}|}
    );
    ( "S4 closed-loop degrade",
      s4_config,
      s4_workload,
      {|{"workload":"closed:n=60,clients=4,think=1,seed=5,deadline=25,region=0.3,reduced=0.3","streams":3,"policy":"degrade","queue_capacity":3,"cache_capacity":128,"max_batch":8,"total":60,"served":60,"rejected":0,"dropped":0,"degraded":9,"batches":49,"coalesced":32,"concealed_blocks":0,"makespan_ms":29.508799158,"throughput_rps":2033.29182183,"latency_ms":{"mean":0.831277530017,"p50":0.11537362,"p95":2.792195546,"p99":4.163503601,"max":4.163503601},"slo_misses":0,"slo_miss_rate":0,"cache":{"hits":571,"misses":218,"evictions":58,"hit_rate":0.723700887199},"ingest":null,"pixels_digest":"8179ef5bbb1157f9"}|}
    );
    ( "S5 closed-loop faulted ingest",
      s5_config,
      s5_workload,
      {|{"workload":"closed:n=40,clients=3,think=2,seed=9,deadline=6,region=0.25,reduced=0.25","streams":3,"policy":"reject","queue_capacity":32,"cache_capacity":128,"max_batch":8,"total":40,"served":39,"rejected":0,"dropped":1,"degraded":0,"batches":40,"coalesced":0,"concealed_blocks":0,"makespan_ms":121.848503892,"throughput_rps":320.069584396,"latency_ms":{"mean":7.26203877056,"p50":7.18088,"p95":8.011797672,"p99":8.159274018,"max":8.159274018},"slo_misses":40,"slo_miss_rate":1,"cache":{"hits":0,"misses":0,"evictions":0,"hit_rate":0},"ingest":{"spec":"chunk=256,gap_us=100,loss=0.05,dup=0.05,reorder=0.1,window=4,stall=0.2,stall_us=2000","chunks_sent":7460,"chunks_lost":368,"chunks_duped":376,"chunks_reordered":719,"stall_ms":1444.55944995,"bytes_received":1811958,"flushed":39,"flush_failed":1,"flush_concealed_blocks":0,"flush_concealed_tiles":599,"flush_psnr_db":12.3978038681},"pixels_digest":"b6fc633f9af564a0"}|}
    );
  ]

let test_cli_golden_reports () =
  List.iter
    (fun (label, config, workload, golden) ->
      let service = Serve.Service.create ~config (cli_corpus 3) in
      Alcotest.(check string)
        (label ^ " byte-identical")
        golden
        (report_string (Serve.Service.run service (spec_exn workload))))
    cli_goldens

let traced config workload =
  let service = Serve.Service.create ~config (cli_corpus 3) in
  fst
    (Telemetry.Sink.with_sink (fun () ->
         Serve.Service.run service (spec_exn workload)))

(* Every span of a run, one line each, sorted: the span set without
   the order the run emitted it in. *)
let sorted_spans sink =
  List.filter_map
    (fun (ev : Telemetry.Event.t) ->
      match ev.Telemetry.Event.phase with
      | Telemetry.Event.Complete dur ->
        Some
          (Printf.sprintf "%s %s %s %d %d %s" ev.Telemetry.Event.track
             ev.Telemetry.Event.cat ev.Telemetry.Event.name
             ev.Telemetry.Event.ts_ps dur
             (Telemetry.Json.to_string
                (Telemetry.Json.Obj
                   (List.map
                      (fun (k, a) -> (k, Telemetry.Event.arg_to_json a))
                      ev.Telemetry.Event.args))))
      | Telemetry.Event.Instant | Telemetry.Event.Counter _ -> None)
    (Telemetry.Sink.events sink)
  |> List.sort String.compare

(* Recorded with the goldens above: the spans of the S2 and S4 runs
   and the cost tree of a traced S1 run. *)
let golden_spans_digest = "72e80edf27184feeba338057b9115a02"
let golden_profile_digest = "ba60777851474855ac47f458548f9c13"

let test_trace_and_profile_digests () =
  let spans =
    sorted_spans (traced s2_config s2_workload)
    @ sorted_spans (traced s4_config s4_workload)
  in
  Alcotest.(check string) "S2+S4 spans" golden_spans_digest
    (Digest.to_hex (Digest.string (String.concat "\n" spans)));
  let collapsed =
    Telemetry.Profile.collapsed
      (Telemetry.Profile.of_events
         (Telemetry.Sink.events (traced s1_config s1_workload)))
  in
  Alcotest.(check string) "S1 collapsed profile" golden_profile_digest
    (Digest.to_hex (Digest.string collapsed))

(* -- admission instants ---------------------------------------------- *)

(* A degrade or reject instant is about the arriving request and is
   stamped at its arrival, however long the running batch still takes. *)
let test_admission_stamped_at_arrival () =
  let check config workload =
    let service = Serve.Service.create ~config (cli_corpus 3) in
    let spec = spec_exn workload in
    let arrival = Hashtbl.create 64 in
    Array.iter
      (fun (r : Serve.Request.t) ->
        Hashtbl.replace arrival r.Serve.Request.id r.Serve.Request.arrival_ps)
      (Serve.Service.open_arrivals service spec);
    let sink, _ =
      Telemetry.Sink.with_sink (fun () -> Serve.Service.run service spec)
    in
    let instants =
      List.filter
        (fun (ev : Telemetry.Event.t) ->
          ev.Telemetry.Event.phase = Telemetry.Event.Instant
          && List.mem ev.Telemetry.Event.name [ "degrade"; "reject" ])
        (Telemetry.Sink.events sink)
    in
    Alcotest.(check bool) (workload ^ ": admission instants") true
      (instants <> []);
    List.iter
      (fun (ev : Telemetry.Event.t) ->
        let id =
          match List.assoc "id" ev.Telemetry.Event.args with
          | Telemetry.Event.Int id -> id
          | _ -> Alcotest.fail "admission instant without an id"
        in
        Alcotest.(check int)
          (Printf.sprintf "%s of request %d at its arrival"
             ev.Telemetry.Event.name id)
          (Hashtbl.find arrival id) ev.Telemetry.Event.ts_ps)
      instants
  in
  check s1_config s1_workload;
  check s3_config s3_workload

(* -- conservation over random configs --------------------------------- *)

type service_draw = {
  d_workload : string;
  d_queue : int;
  d_policy : Serve.Service.overload;
  d_cache : int;
  d_batch : int;
  d_ingest : string option;
}

let print_service_draw d =
  Printf.sprintf "%s queue=%d policy=%s cache=%d batch=%d ingest=%s"
    d.d_workload d.d_queue
    (Serve.Service.overload_to_string d.d_policy)
    d.d_cache d.d_batch
    (Option.value d.d_ingest ~default:"off")

let service_draw =
  let open QCheck.Gen in
  let* n = int_range 1 40 and* seed = int_range 0 9999 in
  let* deadline = int_range 2 30 and* region = int_range 0 4 in
  let* reduced = int_range 0 4 in
  let mix =
    Printf.sprintf "n=%d,seed=%d,deadline=%d,region=0.%d,reduced=0.%d" n seed
      deadline region reduced
  in
  let* d_workload =
    oneof
      [
        map (fun rate -> Printf.sprintf "open:%s,rate=%d" mix rate)
          (int_range 200 8000);
        map2
          (fun clients think ->
            Printf.sprintf "closed:%s,clients=%d,think=%d" mix clients think)
          (int_range 1 4) (int_range 0 3);
      ]
  in
  let* d_queue = int_range 1 8 and* d_cache = int_range 0 16 in
  let* d_batch = int_range 1 4 in
  let* d_policy =
    oneofl Serve.Service.[ Reject; Drop_oldest; Degrade ]
  in
  let+ d_ingest =
    opt
      (map3
         (fun chunk loss stall ->
           Printf.sprintf
             "chunk=%d,loss=0.0%d,dup=0.05,reorder=0.1,stall=0.%d,stall_us=1500"
             chunk loss stall)
         (int_range 64 1024) (int_range 0 9) (int_range 0 3))
  in
  { d_workload; d_queue; d_policy; d_cache; d_batch; d_ingest }

(* The sink's serve.* figures equal the report's; [serve.slo_misses]
   counts only served requests past their deadline. A single service
   never spills, scales or has an L2. *)
let sink_agrees sink r =
  let open Serve.Service in
  let m = Telemetry.Sink.metrics sink in
  let c key want = (key, Telemetry.Metrics.counter m ("serve." ^ key), want) in
  let dist key =
    match List.assoc_opt ("serve." ^ key) (Telemetry.Metrics.dists m) with
    | Some d -> (d.Telemetry.Metrics.d_count, d.Telemetry.Metrics.d_sum)
    | None -> (0, 0)
  in
  let ing f = match r.ingest with Some i -> f i | None -> 0 in
  let batched, batch_requests = dist "batch_requests" in
  List.iter
    (fun (metric, got, want) ->
      if got <> want then
        QCheck.Test.fail_reportf "serve.%s: sink %d, report %d" metric got want)
    [
      c "arrivals" r.total;
      c "rejected" r.rejected;
      c "dropped" r.dropped;
      c "degraded" r.degraded;
      c "spilled" 0;
      c "batches" r.batches;
      c "coalesced" r.coalesced;
      c "scale_ups" 0;
      c "scale_downs" 0;
      c "slo_misses" (r.slo_misses - r.rejected - r.dropped);
      c "cache.hits" r.cache_hits;
      c "cache.misses" r.cache_misses;
      c "cache.evictions" r.cache_evictions;
      c "l2.hits" 0;
      c "l2.misses" 0;
      c "l2.fetches" 0;
      c "ingest.flushed" (ing (fun i -> i.ing_flushed));
      c "ingest.chunks" (ing (fun i -> i.ing_chunks_sent));
      c "ingest.lost" (ing (fun i -> i.ing_chunks_lost));
      c "ingest.bytes" (ing (fun i -> i.ing_bytes));
      ("latency_us count", fst (dist "latency_us"), r.served);
      ("batch_requests count", batched, r.batches);
      ( "batch_requests sum",
        batch_requests,
        r.served + ing (fun i -> i.ing_flush_failed) );
    ];
  true

let test_service_conservation () =
  let corpus = corpus () in
  let prop pool1 others d =
    let config =
      cli_config ~queue:d.d_queue ~policy:d.d_policy ~cache:d.d_cache
        ~batch:d.d_batch ?ingest:d.d_ingest ()
    in
    let spec = spec_exn d.d_workload in
    let run pool =
      Serve.Service.run ~pool (Serve.Service.create ~config corpus) spec
    in
    let sink, r = Telemetry.Sink.with_sink (fun () -> run pool1) in
    r.Serve.Service.total
    = r.Serve.Service.served + r.Serve.Service.rejected + r.Serve.Service.dropped
    && r.Serve.Service.degraded <= r.Serve.Service.total
    && sink_agrees sink r
    && List.for_all
         (fun pool -> String.equal (report_string r) (report_string (run pool)))
         others
  in
  Par.Pool.with_jobs 1 (fun pool1 ->
      Par.Pool.with_jobs 2 (fun pool2 ->
          Par.Pool.with_jobs 4 (fun pool4 ->
              QCheck.Test.check_exn ~rand:(Random.State.make [| 15 |])
                (QCheck.Test.make ~name:"service conserves requests" ~count:40
                   (QCheck.make ~print:print_service_draw service_draw)
                   (prop pool1 [ pool2; pool4 ])))))

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
          Alcotest.test_case "CLI golden reports" `Quick test_cli_golden_reports;
          Alcotest.test_case "trace and profile digests" `Quick
            test_trace_and_profile_digests;
          Alcotest.test_case "admission stamped at arrival" `Quick
            test_admission_stamped_at_arrival;
          Alcotest.test_case "conservation over random configs" `Quick
            test_service_conservation;
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
          Alcotest.test_case "golden reports" `Quick test_ingest_golden_reports;
          Alcotest.test_case "damaged stream" `Quick test_ingest_damaged_stream;
          Alcotest.test_case "layout walk equals prefix model" `Quick
            test_ingest_layout_matches_prefix_model;
        ] );
    ]
