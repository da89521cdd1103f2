(* Tests for the domain pool and for the bit-identity of every
   parallel decode path against its sequential twin. *)

(* -- Pool.map semantics -------------------------------------------- *)

let with_pools f =
  (* Every assertion runs at pool sizes 1 (sequential), 2 and 4. *)
  List.iter
    (fun jobs -> Par.Pool.with_jobs jobs (fun pool -> f ~jobs pool))
    [ 1; 2; 4 ]

let test_map_matches_array_map () =
  with_pools (fun ~jobs pool ->
      List.iter
        (fun n ->
          let arr = Array.init n (fun i -> i) in
          Alcotest.(check (array int))
            (Printf.sprintf "n=%d jobs=%d" n jobs)
            (Array.map (fun x -> (x * x) + 1) arr)
            (Par.Pool.map pool arr (fun x -> (x * x) + 1)))
        [ 0; 1; 2; 3; 7; 64; 1000 ])

let test_map_preserves_order_under_load () =
  (* Uneven chunk workloads must not reorder results. *)
  with_pools (fun ~jobs pool ->
      let arr = Array.init 97 (fun i -> i) in
      let slow x =
        let acc = ref 0 in
        for i = 0 to (x mod 13) * 1000 do
          acc := !acc + i
        done;
        (x, !acc land 0xFF)
      in
      Alcotest.(check bool)
        (Printf.sprintf "order jobs=%d" jobs)
        true
        (Par.Pool.map pool arr slow = Array.map slow arr))

let test_explicit_chunk () =
  (* Any chunk size must give Array.map results; chunk < 1 is a
     caller error. *)
  with_pools (fun ~jobs pool ->
      List.iter
        (fun chunk ->
          let arr = Array.init 100 (fun i -> i) in
          Alcotest.(check (array int))
            (Printf.sprintf "chunk=%d jobs=%d" chunk jobs)
            (Array.map (fun x -> x * 3) arr)
            (Par.Pool.map ~chunk pool arr (fun x -> x * 3)))
        [ 1; 2; 7; 100; 1000 ]);
  Par.Pool.with_jobs 2 (fun pool ->
      match Par.Pool.map ~chunk:0 pool [| 1 |] Fun.id with
      | _ -> Alcotest.fail "chunk:0 accepted"
      | exception Invalid_argument _ -> ())

let test_map_telemetry () =
  (* The batch counters: chunks is a pure function of (n, chunk) —
     deterministic — while steals depends on the schedule and is only
     bounded. A sequential pool reports the sequential counter and no
     chunks. *)
  let counters f =
    let sink, () = Telemetry.Sink.with_sink f in
    let report = Telemetry.Sink.report sink in
    fun name -> Telemetry.Report.counter report ("par.map." ^ name)
  in
  let c =
    counters (fun () ->
        Par.Pool.with_jobs 2 (fun pool ->
            ignore (Par.Pool.map ~chunk:10 pool (Array.init 100 Fun.id) Fun.id)))
  in
  Alcotest.(check int) "calls" 1 (c "calls");
  Alcotest.(check int) "jobs" 100 (c "jobs");
  Alcotest.(check int) "chunks" 10 (c "chunks");
  Alcotest.(check int) "sequential" 0 (c "sequential");
  Alcotest.(check bool) "steals bounded" true
    (c "steals" >= 0 && c "steals" <= 10);
  let s =
    counters (fun () ->
        ignore (Par.Pool.map Par.Pool.sequential (Array.init 5 Fun.id) Fun.id))
  in
  Alcotest.(check int) "sequential calls" 1 (s "calls");
  Alcotest.(check int) "sequential jobs" 5 (s "jobs");
  Alcotest.(check int) "sequential marker" 1 (s "sequential");
  Alcotest.(check int) "sequential chunks" 0 (s "chunks")

exception Boom of int

let test_map_propagates_exception () =
  with_pools (fun ~jobs pool ->
      match Par.Pool.map pool (Array.init 50 Fun.id) (fun x ->
                if x = 37 then raise (Boom x) else x)
      with
      | _ -> Alcotest.failf "jobs=%d: exception swallowed" jobs
      | exception Boom 37 -> ())

let test_nested_map_degrades () =
  (* A map issued from inside a pool task must complete (sequentially)
     rather than deadlock on the busy workers. *)
  Par.Pool.with_jobs 2 (fun pool ->
      let outer =
        Par.Pool.map pool (Array.init 8 Fun.id) (fun i ->
            Array.fold_left ( + ) 0
              (Par.Pool.map pool (Array.init 10 Fun.id) (fun j -> i + j)))
      in
      Alcotest.(check (array int)) "nested results"
        (Array.init 8 (fun i -> (10 * i) + 45))
        outer)

let test_map_after_shutdown_raises () =
  let pool = Par.Pool.of_jobs 2 in
  Par.Pool.shutdown pool;
  Par.Pool.shutdown pool (* idempotent *);
  Alcotest.check_raises "map after shutdown"
    (Invalid_argument "Par.Pool.map: pool is shut down") (fun () ->
      ignore (Par.Pool.map pool [| 1 |] Fun.id))

let test_parallelism () =
  Alcotest.(check int) "sequential" 1 (Par.Pool.parallelism Par.Pool.sequential);
  Alcotest.(check int) "of_jobs 1" 1 (Par.Pool.parallelism (Par.Pool.of_jobs 1));
  Par.Pool.with_jobs 4 (fun pool ->
      Alcotest.(check int) "of_jobs 4" 4 (Par.Pool.parallelism pool))

(* -- domain-local telemetry and fault state ------------------------- *)

let test_sink_isolation_across_domains () =
  (* Two domains each install their own sink: counters must not
     cross-talk, and the spawning domain's sink must see nothing. *)
  let main_sink, (counts_a, counts_b) =
    Telemetry.Sink.with_sink (fun () ->
        let worker tag n () =
          let sink, () =
            Telemetry.Sink.with_sink (fun () ->
                for _ = 1 to n do
                  Telemetry.Sink.incr tag
                done)
          in
          Telemetry.Metrics.counter (Telemetry.Sink.metrics sink) tag
        in
        let a = Domain.spawn (worker "ticks" 3) in
        let b = Domain.spawn (worker "ticks" 5) in
        (Domain.join a, Domain.join b))
  in
  Alcotest.(check int) "domain A count" 3 counts_a;
  Alcotest.(check int) "domain B count" 5 counts_b;
  Alcotest.(check int) "main sink untouched" 0
    (Telemetry.Metrics.counter (Telemetry.Sink.metrics main_sink) "ticks")

let test_fault_hooks_are_domain_local () =
  let hits = Atomic.make 0 in
  Osss.Fault_hooks.set_stall (fun ~proc:_ ->
      Atomic.incr hits;
      0);
  Fun.protect
    ~finally:(fun () -> Osss.Fault_hooks.clear ())
    (fun () ->
      let other =
        Domain.spawn (fun () ->
            Osss.Fault_hooks.stall () = None && not (Osss.Fault_hooks.active ()))
      in
      Alcotest.(check bool) "fresh domain sees no hook" true
        (Domain.join other);
      match Osss.Fault_hooks.stall () with
      | Some f ->
        ignore (f ~proc:"cpu0");
        Alcotest.(check int) "installing domain still hooked" 1
          (Atomic.get hits)
      | None -> Alcotest.fail "hook lost on installing domain")

(* -- decoder bit-identity ------------------------------------------- *)

let encoded_stream mode =
  let image =
    Jpeg2000.Image.smooth ~width:96 ~height:64 ~components:3 ~seed:77
  in
  Jpeg2000.Encoder.encode
    {
      Jpeg2000.Encoder.tile_w = 32;
      tile_h = 32;
      levels = 3;
      mode;
      base_step = 2.0;
      code_block = 16;
    }
    image

let test_decode_bit_identity () =
  List.iter
    (fun mode ->
      let data = encoded_stream mode in
      let reference = Jpeg2000.Decoder.decode data in
      with_pools (fun ~jobs pool ->
          Alcotest.(check bool)
            (Printf.sprintf "decode jobs=%d" jobs)
            true
            (Jpeg2000.Image.equal reference
               (Jpeg2000.Decoder.decode ~pool data))))
    [ Jpeg2000.Codestream.Lossless; Jpeg2000.Codestream.Lossy ]

(* Flip bits inside the entropy-coded pass bytes and plane counts only
   (the framing stays intact), then re-emit: a parseable stream whose
   payload damage exercises both block- and tile-level concealment. *)
let corrupt_stream ~seed ~rate data =
  let rng = Faults.Rng.create seed in
  let corrupt_pass s =
    let b = Bytes.of_string s in
    for i = 0 to Bytes.length b - 1 do
      if Faults.Rng.float rng < rate then
        Bytes.set b i
          (Char.chr
             (Char.code (Bytes.get b i) lxor (1 lsl Faults.Rng.int rng 8)))
    done;
    Bytes.to_string b
  in
  let corrupt_block (blk : Jpeg2000.Codestream.block_segment) =
    let blk_planes =
      if Faults.Rng.float rng < rate then
        blk.Jpeg2000.Codestream.blk_planes lxor (1 lsl (5 + Faults.Rng.int rng 3))
      else blk.Jpeg2000.Codestream.blk_planes
    in
    {
      Jpeg2000.Codestream.blk_planes;
      blk_passes = List.map corrupt_pass blk.Jpeg2000.Codestream.blk_passes;
    }
  in
  let corrupt_band (band : Jpeg2000.Codestream.band_segment) =
    {
      band with
      Jpeg2000.Codestream.seg_blocks =
        List.map corrupt_block band.Jpeg2000.Codestream.seg_blocks;
    }
  in
  let stream = Result.get_ok (Jpeg2000.Codestream.parse_result data) in
  Jpeg2000.Codestream.emit
    {
      stream with
      Jpeg2000.Codestream.tiles =
        List.map
          (fun (seg : Jpeg2000.Codestream.tile_segment) ->
            {
              seg with
              Jpeg2000.Codestream.comps =
                Array.map (List.map corrupt_band) seg.Jpeg2000.Codestream.comps;
            })
          stream.Jpeg2000.Codestream.tiles;
    }

let test_decode_robust_bit_identity () =
  let data =
    corrupt_stream ~seed:42 ~rate:0.02
      (encoded_stream Jpeg2000.Codestream.Lossless)
  in
  match Jpeg2000.Decoder.decode_robust data with
  | Error _ -> Alcotest.fail "corrupted stream no longer parses"
  | Ok (ref_image, ref_report) ->
    Alcotest.(check bool) "damage actually concealed" true
      (ref_report.Jpeg2000.Decoder.concealed_blocks > 0
      || ref_report.Jpeg2000.Decoder.concealed_tiles > 0);
    with_pools (fun ~jobs pool ->
        match Jpeg2000.Decoder.decode_robust ~pool data with
        | Error _ -> Alcotest.failf "jobs=%d: parallel robust decode failed" jobs
        | Ok (image, report) ->
          Alcotest.(check bool)
            (Printf.sprintf "image jobs=%d" jobs)
            true
            (Jpeg2000.Image.equal ref_image image);
          Alcotest.(check bool)
            (Printf.sprintf "report jobs=%d" jobs)
            true (ref_report = report))

(* -- model sweep and campaign bit-identity -------------------------- *)

let outcome_fingerprint o = Telemetry.Json.to_string (Models.Outcome.to_json o)

let test_nine_versions_bit_identity () =
  let mode = Jpeg2000.Codestream.Lossless in
  let reference =
    List.map outcome_fingerprint
      (Models.Experiment.run_many ~payload:false Models.Experiment.all_versions
         mode)
  in
  with_pools (fun ~jobs pool ->
      let outcomes =
        Models.Experiment.run_many ~payload:false ~pool
          Models.Experiment.all_versions mode
      in
      Alcotest.(check (list string))
        (Printf.sprintf "outcomes jobs=%d" jobs)
        reference
        (List.map outcome_fingerprint outcomes))

let test_campaign_bit_identity () =
  (* A small grid with real payload, corruption and fault hooks: the
     strongest determinism claim — per-run seeds and domain-local
     fault state keep every row identical on any pool. *)
  let config =
    Models.Campaign.default ~seed:2008 ~rates:[ 0.0; 0.01 ]
      ~versions:Models.Experiment.[ V1; V6a ] ()
  in
  let reference = Models.Campaign.render config (Models.Campaign.run config) in
  with_pools (fun ~jobs pool ->
      Alcotest.(check string)
        (Printf.sprintf "campaign table jobs=%d" jobs)
        reference
        (Models.Campaign.render config (Models.Campaign.run ~pool config)))

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "map = Array.map" `Quick test_map_matches_array_map;
          Alcotest.test_case "order under uneven load" `Quick
            test_map_preserves_order_under_load;
          Alcotest.test_case "explicit chunk" `Quick test_explicit_chunk;
          Alcotest.test_case "map telemetry" `Quick test_map_telemetry;
          Alcotest.test_case "exception propagation" `Quick
            test_map_propagates_exception;
          Alcotest.test_case "nested map degrades" `Quick
            test_nested_map_degrades;
          Alcotest.test_case "shutdown semantics" `Quick
            test_map_after_shutdown_raises;
          Alcotest.test_case "parallelism" `Quick test_parallelism;
        ] );
      ( "domain-local state",
        [
          Alcotest.test_case "sink isolation" `Quick
            test_sink_isolation_across_domains;
          Alcotest.test_case "fault hooks" `Quick
            test_fault_hooks_are_domain_local;
        ] );
      ( "bit-identity",
        [
          Alcotest.test_case "decode" `Quick test_decode_bit_identity;
          Alcotest.test_case "decode_robust" `Quick
            test_decode_robust_bit_identity;
          Alcotest.test_case "nine versions" `Quick
            test_nine_versions_bit_identity;
          Alcotest.test_case "fault campaign" `Quick test_campaign_bit_identity;
        ] );
    ]
