(* Benchmark harness.

   One Bechamel test per paper artefact — regenerating Figure 1, the
   two halves of Table 1, and the Table 2 synthesis comparison — plus
   substrate micro-benchmarks (simulation kernel, MQ coder, DWT,
   Tier-1) and the DESIGN.md ablations (Shared-Object arbitration
   policy, bus burst length).

   After the measurements the harness prints the regenerated
   artefacts themselves, so `dune exec bench/main.exe` both times the
   reproduction and emits the paper's rows. It also writes
   BENCH_results.json (per-benchmark ns/run plus the Table 1 rows) for
   machine consumption; `--quick` shrinks the measurement budget and
   skips the ablations so CI can afford a smoke run. *)

open Bechamel
open Toolkit

let quick = Array.exists (String.equal "--quick") Sys.argv

(* [--jobs N] sets the domain count of the parallel-scaling rows
   (default 4). Speedup needs real cores: on a single-CPU host the
   jobsN rows mostly measure the multicore-GC overhead. *)
let jobs =
  let invalid what =
    Printf.eprintf "bench: --jobs must be an integer >= 1 (got %s)\n" what;
    exit 2
  in
  let rec find i =
    if i >= Array.length Sys.argv then 4
    else if String.equal Sys.argv.(i) "--jobs" then
      if i + 1 >= Array.length Sys.argv then invalid "nothing"
      else
        match int_of_string_opt Sys.argv.(i + 1) with
        | Some n when n >= 1 -> n
        | Some n -> invalid (string_of_int n)
        | None -> invalid (Printf.sprintf "%S" Sys.argv.(i + 1))
    else find (i + 1)
  in
  find 1

let par_pool = Par.Pool.of_jobs jobs

(* Fixed-width pools behind the pinned scaling rows (j2k_decode_jobs2,
   serve_warm_32req_jobs4). Reuse [par_pool] when --jobs already is
   that width so a row never exists twice under one name. *)
let pool2 = if jobs = 2 then par_pool else Par.Pool.of_jobs 2
let pool4 = if jobs = 4 then par_pool else Par.Pool.of_jobs 4

let lossless = Jpeg2000.Codestream.Lossless
let lossy = Jpeg2000.Codestream.Lossy

(* -- benchmarked actions -------------------------------------------- *)

let run_app_models mode () =
  List.iter
    (fun v -> ignore (Models.Experiment.run ~payload:false v mode))
    Models.Experiment.[ V1; V2; V3; V4; V5 ]

let run_vta_models mode () =
  List.iter
    (fun v -> ignore (Models.Experiment.run ~payload:false v mode))
    Models.Experiment.[ V6a; V6b; V7a; V7b ]

let run_fig1 () = ignore (Models.Tables.figure1 ~payload:false ())

let run_table2 () = ignore (Models.Tables.table2_rows ())

let kernel_ping_pong () =
  (* Two processes exchanging 1000 events through a mailbox: the DES
     kernel ablation (effect-handler processes). *)
  let k = Sim.Kernel.create () in
  let mb = Sim.Mailbox.create k ~capacity:4 () in
  Sim.Kernel.spawn k (fun () ->
      for i = 1 to 1000 do
        Sim.Mailbox.put mb i
      done);
  Sim.Kernel.spawn k (fun () ->
      for _ = 1 to 1000 do
        ignore (Sim.Mailbox.get mb)
      done);
  Sim.Kernel.run k

let kernel_ping_pong_traced () =
  (* Same workload with a telemetry sink installed: the difference to
     kernel_ping_pong_1k is the per-hook cost of enabled telemetry. *)
  let _sink, () = Telemetry.Sink.with_sink kernel_ping_pong in
  ()

let mq_payload =
  let state = ref 12345 in
  Array.init 20_000 (fun _ ->
      state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
      (!state lsr 7) land 1)

let mq_roundtrip () =
  let ctx = [| 0 |] in
  let enc = Jpeg2000.Mq.encoder () in
  Array.iter (Jpeg2000.Mq.encode enc ctx 0) mq_payload;
  let data = Jpeg2000.Mq.flush enc in
  let ctx' = [| 0 |] in
  let dec = Jpeg2000.T1.mq_decoder data in
  Array.iter (fun _ -> ignore (Jpeg2000.T1.mq_decode dec ctx' 0)) mq_payload

let dwt_coeffs = Array.init (128 * 128) (fun i -> ((i * 37) mod 511) - 255)

let dwt53_roundtrip () =
  let p = Jpeg2000.Plane.of_array ~w:128 ~h:128 dwt_coeffs in
  Jpeg2000.Dwt53.forward_plane p ~levels:3;
  Jpeg2000.Dwt53.inverse_plane p ~levels:3

let t1_block =
  let state = ref 99 in
  Array.init (32 * 32) (fun _ ->
      state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
      if !state mod 5 = 0 then (!state mod 255) - 127 else 0)

let t1_roundtrip () =
  let planes, passes =
    Jpeg2000.T1.encode_block_scalable ~orientation:Jpeg2000.Subband.HL ~w:32
      ~h:32 t1_block
  in
  ignore
    (Jpeg2000.T1.decode_block_scalable ~orientation:Jpeg2000.Subband.HL ~w:32
       ~h:32 ~planes passes)

(* The reference coder beside the production one: t1_block_32x32
   round-trips a block through the LUT-context encoder and the
   decoder-specialised passes, this row through the generic driver
   with per-probe reference contexts on both sides ([~lut:false]). The
   pair is production against reference. Both code one MQ codeword
   per pass, the layout the codestream carries. *)
let t1_roundtrip_ref () =
  let planes, passes =
    Jpeg2000.T1.encode_block_scalable ~lut:false
      ~orientation:Jpeg2000.Subband.HL ~w:32 ~h:32 t1_block
  in
  ignore
    (Jpeg2000.T1.decode_block_scalable ~lut:false
       ~orientation:Jpeg2000.Subband.HL ~w:32 ~h:32 ~planes passes)

(* -- parallel scaling rows ------------------------------------------ *)

let j2k_stream = Models.Workload.codestream lossless

let j2k_decode pool () = ignore (Jpeg2000.Decoder.decode ~pool j2k_stream)

(* Same decode under an installed sink: the delta to j2k_decode_jobs1
   is what enabling the profiler costs on the decode path (reported as
   profile_overhead_decode in BENCH_results.json). *)
let j2k_decode_profiled pool () =
  let _sink, () =
    Telemetry.Sink.with_sink (fun () ->
        ignore (Jpeg2000.Decoder.decode ~pool j2k_stream))
  in
  ()

(* -- decode service rows --------------------------------------------- *)

let serve_spec =
  match Serve.Request.parse_spec "open:n=32,rate=1000,seed=11" with
  | Ok spec -> spec
  | Error e -> failwith e

(* Cold: cache disabled, every request pays the full decode. Warm:
   the default cache. [Service.run] creates a fresh cache on every
   call, so each iteration starts cold and the warm row measures tile
   reuse within one 32-request run (later requests hit what earlier
   ones decoded), not across iterations. The cold/warm ratio is
   reported as cache_hit_speedup in BENCH_results.json. *)
let serve_cold_service =
  Serve.Service.create
    ~config:{ Serve.Service.default_config with Serve.Service.cache_capacity = 0 }
    [| j2k_stream |]

let serve_warm_service = Serve.Service.create [| j2k_stream |]
let serve_run service () = ignore (Serve.Service.run service serve_spec)

(* The warm serving path on a 4-domain pool: the batch scheduler's
   coalesced Pool.map decodes staged jobs in parallel. Like the
   sequential warm row, each iteration starts from an empty cache. *)
let serve_warm_service_jobs4 = Serve.Service.create [| j2k_stream |]

let serve_run_pool pool service () =
  ignore (Serve.Service.run ~pool service serve_spec)

(* Streaming-ingest rows: the same service fed chunk-by-chunk on the
   virtual clock. Clean delivery prices the reassembly/readiness
   machinery alone; the faulty row adds loss + stall jitter and so
   pays for deadline flushes through the concealment decoder. *)
let serve_ingest_spec =
  match Serve.Request.parse_spec "open:n=24,rate=600,seed=11,deadline=8" with
  | Ok spec -> spec
  | Error e -> failwith e

let ingest_faulty_profile = "chunk=256,loss=0.05,stall=0.2,stall_us=2000"

let ingest_config profile =
  match Faults.Ingest.parse_spec profile with
  | Ok ing -> { Serve.Service.default_config with Serve.Service.ingest = Some ing }
  | Error e -> failwith e

let serve_ingest_clean_service =
  Serve.Service.create ~config:(ingest_config "") [| j2k_stream |]

let serve_ingest_faulty_service =
  Serve.Service.create ~config:(ingest_config ingest_faulty_profile) [| j2k_stream |]

let serve_ingest_run service () =
  ignore (Serve.Service.run service serve_ingest_spec)

(* -- fleet rows ------------------------------------------------------- *)

(* Balancer hot path alone: owner lookups for 10k digests against a
   16-replica ring and against the same ring after one remove and one
   add — prices the routing without any decoding. *)
let fleet_ring_digests =
  Array.init 10_000 (fun i -> Faults.Rng.hash64 0x5eedL (Int64.of_int i))

let fleet_ring_16 = Fleet.Ring.create (List.init 16 Fun.id)
let fleet_ring_15 = Fleet.Ring.remove fleet_ring_16 7
let fleet_ring_17 = Fleet.Ring.add fleet_ring_16 16

let fleet_ring_lookups () =
  Array.iter
    (fun d ->
      ignore (Fleet.Ring.owner fleet_ring_16 d);
      ignore (Fleet.Ring.owner fleet_ring_15 d);
      ignore (Fleet.Ring.owner fleet_ring_17 d))
    fleet_ring_digests

(* One whole fleet run per iteration: four replicas with deliberately
   small L1s over the shared L2. Replica state lives per [Fleet.run],
   so reusing the fleet value across iterations is safe. *)
let fleet_corpus =
  Array.init 4 (fun i -> Models.Workload.codestream ~seed:(41 + i) lossless)

let fleet_spec =
  match Serve.Request.parse_spec "open:n=32,rate=1200,seed=11,deadline=30" with
  | Ok spec -> spec
  | Error e -> failwith e

let fleet_service_config =
  { Serve.Service.default_config with Serve.Service.cache_capacity = 8 }

let fleet_4r = Fleet.create ~service:fleet_service_config fleet_corpus
let fleet_run pool () = ignore (Fleet.run ~pool fleet_4r fleet_spec)

let sweep_9v pool () =
  ignore
    (Models.Experiment.run_many ~payload:false ~pool
       Models.Experiment.all_versions lossless)

let ablation_policy policy () =
  let w = Models.Workload.make ~payload:false lossy in
  ignore
    (Models.Vta_models.run_custom ~so_policy:policy ~version:"7a" ~sw_tasks:4
       ~idwt_p2p:false w)

let ablation_burst words () =
  let w = Models.Workload.make ~payload:false lossy in
  ignore
    (Models.Vta_models.run_custom ~bus_max_burst:words ~version:"7a" ~sw_tasks:4
       ~idwt_p2p:false w)

let artefact_tests =
  [
    Test.make ~name:"fig1_profile" (Staged.stage run_fig1);
    Test.make ~name:"table1_app_lossless" (Staged.stage (run_app_models lossless));
    Test.make ~name:"table1_app_lossy" (Staged.stage (run_app_models lossy));
    Test.make ~name:"table1_vta_lossless" (Staged.stage (run_vta_models lossless));
    Test.make ~name:"table1_vta_lossy" (Staged.stage (run_vta_models lossy));
    Test.make ~name:"table2_synthesis" (Staged.stage run_table2);
  ]

(* The jobs1 rows are always pinned; the --jobs width adds its derived
   rows only when it differs from a pinned width, so no name ever
   appears twice (Bechamel keys rows by name). *)
let substrate_tests =
  [
    Test.make ~name:"kernel_ping_pong_1k" (Staged.stage kernel_ping_pong);
    Test.make ~name:"kernel_ping_pong_1k_traced"
      (Staged.stage kernel_ping_pong_traced);
    Test.make ~name:"mq_roundtrip_20kbit" (Staged.stage mq_roundtrip);
    Test.make ~name:"dwt53_128x128_l3" (Staged.stage dwt53_roundtrip);
    Test.make ~name:"t1_block_32x32" (Staged.stage t1_roundtrip);
    Test.make ~name:"t1_block_32x32_ref" (Staged.stage t1_roundtrip_ref);
    Test.make ~name:"j2k_decode_jobs1"
      (Staged.stage (j2k_decode Par.Pool.sequential));
    Test.make ~name:"j2k_decode_jobs1_profiled"
      (Staged.stage (j2k_decode_profiled Par.Pool.sequential));
    Test.make ~name:"j2k_decode_jobs2" (Staged.stage (j2k_decode pool2));
    Test.make ~name:"sweep_9v_jobs1" (Staged.stage (sweep_9v Par.Pool.sequential));
    Test.make ~name:"serve_cold_32req" (Staged.stage (serve_run serve_cold_service));
    Test.make ~name:"serve_warm_32req" (Staged.stage (serve_run serve_warm_service));
    Test.make ~name:"serve_warm_32req_jobs4"
      (Staged.stage (serve_run_pool pool4 serve_warm_service_jobs4));
    Test.make ~name:"serve_ingest_clean_24req"
      (Staged.stage (serve_ingest_run serve_ingest_clean_service));
    Test.make ~name:"serve_ingest_faulty_24req"
      (Staged.stage (serve_ingest_run serve_ingest_faulty_service));
    Test.make ~name:"fleet_ring_10k_lookups" (Staged.stage fleet_ring_lookups);
    Test.make ~name:"fleet_32req_4r_jobs1"
      (Staged.stage (fleet_run Par.Pool.sequential));
    Test.make ~name:"fleet_32req_4r_jobs4" (Staged.stage (fleet_run pool4));
  ]
  @ (if jobs = 1 || jobs = 2 then []
     else
       [
         Test.make
           ~name:(Printf.sprintf "j2k_decode_jobs%d" jobs)
           (Staged.stage (j2k_decode par_pool));
       ])
  @
  if jobs = 1 then []
  else
    [
      Test.make
        ~name:(Printf.sprintf "sweep_9v_jobs%d" jobs)
        (Staged.stage (sweep_9v par_pool));
    ]

let ablation_tests =
  [
    Test.make ~name:"ablate_policy_fcfs"
      (Staged.stage (ablation_policy Osss.Arbiter.Fcfs));
    Test.make ~name:"ablate_policy_round_robin"
      (Staged.stage (ablation_policy Osss.Arbiter.Round_robin));
    Test.make ~name:"ablate_policy_priority"
      (Staged.stage (ablation_policy Osss.Arbiter.Static_priority));
    Test.make ~name:"ablate_burst_8" (Staged.stage (ablation_burst 8));
    Test.make ~name:"ablate_burst_64" (Staged.stage (ablation_burst 64));
  ]

let tests =
  Test.make_grouped ~name:"repro"
    (if quick then substrate_tests
     else artefact_tests @ substrate_tests @ ablation_tests)

(* Each row is measured as the median of [measurement_passes]
   independent OLS estimates, after one throwaway warm-up pass. A
   single estimate is at the mercy of whatever the host did during
   that one quota window — the traced ping-pong row has measured
   {e faster} than the untraced one on single estimates — and a gate
   comparing two such numbers passes or fails on noise. The warm-up
   absorbs first-touch effects (lazy code, allocator growth, cache
   fills shared services accumulate) so pass 1 measures the same
   steady state as pass 3. *)
let measurement_passes = 3

let benchmark () =
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let quota = if quick then Time.second 0.1 else Time.second 1.0 in
  let cfg =
    Benchmark.cfg ~limit:(if quick then 10 else 50) ~quota ~kde:None ()
  in
  let instances = Instance.[ monotonic_clock ] in
  let warm_cfg = Benchmark.cfg ~limit:1 ~quota:(Time.second 0.01) ~kde:None () in
  ignore (Benchmark.all warm_cfg instances tests);
  List.init measurement_passes (fun _ ->
      let raw = Benchmark.all cfg instances tests in
      List.map (fun instance -> Analyze.all ols instance raw) instances)

let pass_rows results =
  List.concat_map
    (fun tbl ->
      Hashtbl.fold
        (fun name result acc ->
          let value =
            match Analyze.OLS.estimates result with
            | Some [ est ] -> est
            | Some _ | None -> Float.nan
          in
          (name, value) :: acc)
        tbl []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b))
    results

let median values =
  match
    List.sort Float.compare
      (List.filter (fun v -> not (Float.is_nan v)) values)
  with
  | [] -> Float.nan
  | sorted -> List.nth sorted (List.length sorted / 2)

(* (benchmark name, median ns per run) rows behind both the text table
   and the JSON artefact. *)
let bench_rows passes =
  match List.map pass_rows passes with
  | [] -> []
  | first :: _ as per_pass ->
    List.map
      (fun (name, _) ->
        (name, median (List.filter_map (List.assoc_opt name) per_pass)))
      first

(* OLS estimate of the row whose (grouped) name ends with [suffix]. *)
let row_ns rows suffix =
  List.find_map
    (fun (name, ns) ->
      if
        String.length name >= String.length suffix
        && String.sub name
             (String.length name - String.length suffix)
             (String.length suffix)
           = suffix
        && not (Float.is_nan ns)
      then Some ns
      else None)
    rows

(* Regression gate on the traced-kernel hot path: after the label
   interning in Sim.Kernel, an installed sink may cost at most 25%
   on the ping-pong microbenchmark. Returns true on breach. *)
let traced_overhead_limit = 1.25

let traced_overhead_gate rows =
  match
    (row_ns rows "kernel_ping_pong_1k", row_ns rows "kernel_ping_pong_1k_traced")
  with
  | Some plain, Some traced when plain > 0.0 ->
    let ratio = traced /. plain in
    let breach = ratio > traced_overhead_limit in
    Printf.printf "\ntraced-kernel overhead gate: %.3fx (limit %.2fx) - %s\n"
      ratio traced_overhead_limit
      (if breach then "FAIL" else "ok");
    breach
  | _ ->
    Printf.printf "\ntraced-kernel overhead gate: rows missing - skipped\n";
    false

(* -- parallel-scaling gate -------------------------------------------

   The point of the flat-plane decode and the work-stealing pool is
   that domains stop serialising on the minor collector; this gate
   makes CI fail if that win regresses. Enforced only when the run is
   at the pinned width (--jobs 4) AND the host actually has that many
   cores — on fewer cores the jobsN rows mostly measure multicore-GC
   overhead and a wall-clock speedup is not physically available, so
   the gate reports its numbers but does not fail. *)
let scaling_gate_jobs = 4
let scaling_decode_speedup_min = 2.5
let scaling_sweep_ratio_max = 1.05

type scaling = {
  sc_cores : int;
  sc_enforced : bool;
  sc_skip_reason : string option;
      (* why the gate is advisory; [None] exactly when enforced *)
  sc_decode_speedup : float option; (* jobs1 / jobsN *)
  sc_sweep_ratio : float option; (* jobsN / jobs1 *)
}

let scaling_measure rows =
  let ratio num den =
    match (row_ns rows num, row_ns rows den) with
    | Some n, Some d when d > 0.0 -> Some (n /. d)
    | _ -> None
  in
  let jn name = Printf.sprintf "%s_jobs%d" name jobs in
  let cores = Domain.recommended_domain_count () in
  let skip_reason =
    if jobs <> scaling_gate_jobs then
      Some (Printf.sprintf "jobs=%d, gate pinned to --jobs %d" jobs scaling_gate_jobs)
    else if cores < jobs then Some (Printf.sprintf "cores=%d < %d" cores jobs)
    else None
  in
  {
    sc_cores = cores;
    sc_enforced = skip_reason = None;
    sc_skip_reason = skip_reason;
    sc_decode_speedup = ratio "j2k_decode_jobs1" (jn "j2k_decode");
    sc_sweep_ratio = ratio (jn "sweep_9v") "sweep_9v_jobs1";
  }

(* Returns true on an enforced breach. *)
let scaling_gate sc =
  let pp_opt = function
    | Some v -> Printf.sprintf "%.3fx" v
    | None -> "n/a"
  in
  let decode_breach =
    match sc.sc_decode_speedup with
    | Some s -> s < scaling_decode_speedup_min
    | None -> jobs = scaling_gate_jobs (* required rows missing *)
  in
  let sweep_breach =
    match sc.sc_sweep_ratio with
    | Some r -> r > scaling_sweep_ratio_max
    | None -> jobs = scaling_gate_jobs
  in
  let breach = sc.sc_enforced && (decode_breach || sweep_breach) in
  Printf.printf
    "parallel-scaling gate (jobs=%d, cores=%d): decode speedup %s (min \
     %.2fx), sweep ratio %s (max %.2fx) - %s\n"
    jobs sc.sc_cores
    (pp_opt sc.sc_decode_speedup)
    scaling_decode_speedup_min
    (pp_opt sc.sc_sweep_ratio)
    scaling_sweep_ratio_max
    (if breach then "FAIL"
     else if sc.sc_enforced then "ok"
     else
       Printf.sprintf "not enforced (%s)"
         (Option.value sc.sc_skip_reason ~default:"?"));
  breach

let print_bench_results rows =
  Printf.printf "Benchmark (wall-clock per regeneration, OLS estimate):\n";
  List.iter
    (fun (name, ns) -> Printf.printf "  %-42s %12.3f ms\n" name (ns /. 1e6))
    rows

let write_results_json path sc rows =
  let open Telemetry.Json in
  let scaling_json =
    let opt = function Some v -> Float v | None -> Null in
    Obj
      [
        ("jobs", Int jobs);
        ("cores", Int sc.sc_cores);
        ("decode_speedup", opt sc.sc_decode_speedup);
        ("sweep_ratio", opt sc.sc_sweep_ratio);
        ("decode_speedup_min", Float scaling_decode_speedup_min);
        ("sweep_ratio_max", Float scaling_sweep_ratio_max);
        ("enforced", Bool sc.sc_enforced);
        ( "skip_reason",
          match sc.sc_skip_reason with Some r -> Str r | None -> Null );
      ]
  in
  let bench_json =
    List.map
      (fun (name, ns) ->
        Obj
          [
            ("name", Str name);
            ("ns_per_run", if Float.is_nan ns then Null else Float ns);
          ])
      rows
  in
  let lossless_rows, lossy_rows =
    Models.Tables.table1_results ~payload:false ()
  in
  let table1_json rows =
    List.map (fun o -> Models.Outcome.to_json o) rows
  in
  (* Service-level rows: simulated throughput/p99 from one seeded run
     (deterministic), plus the measured wall-clock ratio of the cold
     and warm Bechamel rows above. *)
  let serve_report =
    Serve.Service.run (Serve.Service.create [| j2k_stream |]) serve_spec
  in
  (* Fresh service so the simulated ingest numbers don't depend on how
     many Bechamel iterations warmed the shared caches above. *)
  let ingest_report =
    Serve.Service.run
      (Serve.Service.create ~config:(ingest_config ingest_faulty_profile)
         [| j2k_stream |])
      serve_ingest_spec
  in
  let ingest_json =
    match ingest_report.Serve.Service.ingest with
    | None -> Null
    | Some i ->
      Obj
        [
          ("spec", Str i.Serve.Service.ing_spec);
          ("chunks_lost", Int i.Serve.Service.ing_chunks_lost);
          ("flushed", Int i.Serve.Service.ing_flushed);
          ("flush_failed", Int i.Serve.Service.ing_flush_failed);
          ( "flush_concealed_tiles",
            Int i.Serve.Service.ing_flush_concealed_tiles );
          ( "flush_psnr_db",
            if Float.is_finite i.Serve.Service.ing_flush_psnr_db then
              Float i.Serve.Service.ing_flush_psnr_db
            else Str "inf" );
        ]
  in
  let row_ns = row_ns rows in
  let cache_hit_speedup =
    match (row_ns "serve_cold_32req", row_ns "serve_warm_32req") with
    | Some cold, Some warm when warm > 0.0 -> Float (cold /. warm)
    | _ -> Null
  in
  let profile_overhead_decode =
    match (row_ns "j2k_decode_jobs1", row_ns "j2k_decode_jobs1_profiled") with
    | Some plain, Some profiled when plain > 0.0 -> Float (profiled /. plain)
    | _ -> Null
  in
  let traced_kernel_overhead =
    match
      (row_ns "kernel_ping_pong_1k", row_ns "kernel_ping_pong_1k_traced")
    with
    | Some plain, Some traced when plain > 0.0 -> Float (traced /. plain)
    | _ -> Null
  in
  (* Deterministic cost tree of the seeded serve run: the top self-time
     stages are virtual-time sums, identical on every host. *)
  let profile_json =
    let sink, _ =
      Telemetry.Sink.with_sink (fun () ->
          ignore
            (Serve.Service.run (Serve.Service.create [| j2k_stream |]) serve_spec))
    in
    let prof = Telemetry.Profile.of_events (Telemetry.Sink.events sink) in
    Obj
      [
        ( "top_self",
          List
            (List.map
               (fun (path, self) ->
                 Obj [ ("path", Str path); ("self_ps", Int self) ])
               (Telemetry.Profile.top_self ~n:3 prof)) );
        ("total_ps", Int (Telemetry.Profile.total_ps prof));
        ("profile_overhead_decode", profile_overhead_decode);
        ("traced_kernel_overhead", traced_kernel_overhead);
      ]
  in
  (* Synthesis rows: LUT/FF with and without the value-analysis
     optimiser plus the wall time of one full synthesise call per
     core. *)
  let area_json (a : Rtl.Area.report) =
    Obj
      [
        ("flip_flops", Int a.Rtl.Area.flip_flops);
        ("luts", Int a.Rtl.Area.luts);
      ]
  in
  let synthesis_json =
    List.map
      (fun (name, hir) ->
        let t0 = Sys.time () in
        match Fossy.Synthesis.synthesise hir with
        | Error _ -> Obj [ ("core", Str name); ("error", Bool true) ]
        | Ok r ->
          let wall_ms = (Sys.time () -. t0) *. 1000.0 in
          Obj
            [
              ("core", Str name);
              ("optimised", area_json r.Fossy.Synthesis.area);
              ("unoptimised", area_json r.Fossy.Synthesis.unopt_area);
              ( "lut_delta_pct",
                Float
                  (Rtl.Area.delta_pct
                     ~baseline:r.Fossy.Synthesis.unopt_area.Rtl.Area.luts
                     r.Fossy.Synthesis.area.Rtl.Area.luts) );
              ( "ff_delta_pct",
                Float
                  (Rtl.Area.delta_pct
                     ~baseline:r.Fossy.Synthesis.unopt_area.Rtl.Area.flip_flops
                     r.Fossy.Synthesis.area.Rtl.Area.flip_flops) );
              ("synthesis_wall_ms", Float wall_ms);
            ])
      [
        ("idwt53", Models.Idwt_cores.idwt53_systemc);
        ("idwt97", Models.Idwt_cores.idwt97_systemc);
      ]
  in
  (* Fleet-scaling curves: all numbers are virtual-clock sums from the
     deterministic sweep, so this object is byte-identical on every
     host and at every --jobs. *)
  let fleet_rows = Models.Campaign.run_fleet ~pool:par_pool () in
  let fleet_curve =
    List
      (List.map
         (fun (r : Models.Campaign.fleet_row) ->
           let rep = r.Models.Campaign.fl_report in
           Obj
             [
               ("replicas", Int r.Models.Campaign.fl_replicas);
               ("l2", Int r.Models.Campaign.fl_l2);
               ("throughput_rps", Float rep.Fleet.throughput_rps);
               ("p50_ms", Float rep.Fleet.latency.Serve.Service.p50_ms);
               ("p99_ms", Float rep.Fleet.latency.Serve.Service.p99_ms);
               ("slo_misses", Int rep.Fleet.slo_misses);
               ("slo_miss_rate", Float rep.Fleet.slo_miss_rate);
               ("rejected", Int rep.Fleet.rejected);
               ("spilled", Int rep.Fleet.spilled);
               ("l1_hit_rate", Float rep.Fleet.l1.Fleet.hit_rate);
               ( "l2_hit_rate",
                 match rep.Fleet.l2 with
                 | None -> Null
                 | Some l -> Float l.Fleet.l2_tier.Fleet.hit_rate );
             ])
         fleet_rows)
  in
  (* Locality workload: a 4-tile L1 cannot hold even one stream's 16
     tiles, so re-requested tiles are only ever warm in the shared
     tier — the combined (L1 or L2) hit ratio with the L2 enabled must
     beat the L1-only baseline. *)
  let fleet_locality_spec =
    match Serve.Request.parse_spec "open:n=96,rate=800,seed=7" with
    | Ok spec -> spec
    | Error e -> failwith e
  in
  let locality_report l2 =
    let config = { Fleet.default_config with Fleet.l2_capacity = l2 } in
    let fleet =
      Fleet.create ~config
        ~service:
          { Serve.Service.default_config with Serve.Service.cache_capacity = 4 }
        fleet_corpus
    in
    Fleet.run ~pool:par_pool fleet fleet_locality_spec
  in
  let combined_hit_ratio (rep : Fleet.report) =
    let lookups = rep.Fleet.l1.Fleet.hits + rep.Fleet.l1.Fleet.misses in
    let hits =
      rep.Fleet.l1.Fleet.hits
      +
      match rep.Fleet.l2 with
      | Some l -> l.Fleet.l2_tier.Fleet.hits
      | None -> 0
    in
    if lookups = 0 then 0.0 else float_of_int hits /. float_of_int lookups
  in
  let locality_base = locality_report 0 in
  let locality_warm = locality_report 256 in
  let fleet_locality =
    Obj
      [
        ("workload", Str locality_base.Fleet.workload);
        ("l1_capacity", Int 4);
        ("l2_capacity", Int 256);
        ("l1_only_hit_ratio", Float (combined_hit_ratio locality_base));
        ("with_l2_hit_ratio", Float (combined_hit_ratio locality_warm));
        ( "l2_hit_rate",
          match locality_warm.Fleet.l2 with
          | Some l -> Float l.Fleet.l2_tier.Fleet.hit_rate
          | None -> Null );
        ( "improved",
          Bool
            (combined_hit_ratio locality_warm
            > combined_hit_ratio locality_base) );
      ]
  in
  save path
    (Obj
       [
         ("quick", Bool quick);
         ("jobs", Int jobs);
         ("scaling", scaling_json);
         ("benchmarks", List bench_json);
         ( "serve",
           Obj
             [
               ("workload", Str serve_report.Serve.Service.workload);
               ( "serve_throughput_rps",
                 Float serve_report.Serve.Service.throughput_rps );
               ( "serve_p99_ms",
                 Float serve_report.Serve.Service.latency.Serve.Service.p99_ms );
               ( "cache_hit_rate",
                 Float serve_report.Serve.Service.cache_hit_rate );
               ("cache_hit_speedup", cache_hit_speedup);
               ("ingest", ingest_json);
             ] );
         ( "fleet",
           Obj [ ("sweep", fleet_curve); ("locality", fleet_locality) ] );
         ("profile", profile_json);
         ("synthesis", List synthesis_json);
         ( "table1",
           Obj
             [
               ("lossless", List (table1_json lossless_rows));
               ("lossy", List (table1_json lossy_rows));
             ] );
       ]);
  Printf.printf "\nwrote %s\n" path

(* -- ablation result tables (values, not just timings) ---------------- *)

let print_ablations () =
  Printf.printf
    "\nAblation - HW/SW Shared-Object arbitration policy (version 7a, lossy):\n";
  Printf.printf "  %-18s %14s %12s\n" "policy" "decode [ms]" "IDWT [ms]";
  List.iter
    (fun (name, policy) ->
      let w = Models.Workload.make ~payload:false lossy in
      let r =
        Models.Vta_models.run_custom ~so_policy:policy ~version:"7a" ~sw_tasks:4
          ~idwt_p2p:false w
      in
      Printf.printf "  %-18s %14.1f %12.2f\n" name r.Models.Outcome.decode_ms
        r.Models.Outcome.idwt_ms)
    [
      ("fcfs", Osss.Arbiter.Fcfs);
      ("round-robin", Osss.Arbiter.Round_robin);
      ("static-priority", Osss.Arbiter.Static_priority);
    ];
  Printf.printf "\nAblation - OPB burst length (version 7a, lossy):\n";
  Printf.printf "  %-18s %14s %12s\n" "burst [words]" "decode [ms]" "IDWT [ms]";
  List.iter
    (fun words ->
      let w = Models.Workload.make ~payload:false lossy in
      let r =
        Models.Vta_models.run_custom ~bus_max_burst:words ~version:"7a"
          ~sw_tasks:4 ~idwt_p2p:false w
      in
      Printf.printf "  %-18d %14.1f %12.2f\n" words r.Models.Outcome.decode_ms
        r.Models.Outcome.idwt_ms)
    [ 4; 8; 16; 32; 64 ];
  Printf.printf
    "\nAblation - operator sharing mode on the FOSSY netlists (same netlist,\n\
     Shared = cross-state operator folding, Flat = every instance kept):\n";
  Printf.printf "  %-10s %10s %10s %12s %12s\n" "core" "LUT shared" "LUT flat"
    "fmax shared" "fmax flat";
  List.iter
    (fun (name, hir) ->
      match Fossy.Synthesis.synthesise hir with
      | Error _ -> ()
      | Ok r ->
        let s = r.Fossy.Synthesis.summary in
        let shared = Rtl.Area.estimate ~sharing:Rtl.Area.Shared s in
        let flat = Rtl.Area.estimate ~sharing:Rtl.Area.Flat s in
        Printf.printf "  %-10s %10d %10d %9.1f MHz %9.1f MHz\n" name
          shared.Rtl.Area.luts flat.Rtl.Area.luts
          (Rtl.Timing_model.estimate_mhz ~sharing:Rtl.Area.Shared s)
          (Rtl.Timing_model.estimate_mhz ~sharing:Rtl.Area.Flat s))
    [
      ("idwt53", Models.Idwt_cores.idwt53_systemc);
      ("idwt97", Models.Idwt_cores.idwt97_systemc);
    ]

let () =
  let passes = benchmark () in
  let rows = bench_rows passes in
  print_bench_results rows;
  let overhead_breach = traced_overhead_gate rows in
  let sc = scaling_measure rows in
  let scaling_breach = scaling_gate sc in
  write_results_json "BENCH_results.json" sc rows;
  if not quick then begin
    print_newline ();
    print_string (Models.Tables.figure1 ~payload:false ());
    print_string (Models.Tables.table1 ~payload:false ());
    print_newline ();
    print_string (Models.Tables.table2 ());
    print_string (Models.Tables.relations_report ~payload:false ());
    print_ablations ()
  end;
  if pool2 != par_pool then Par.Pool.shutdown pool2;
  if pool4 != par_pool then Par.Pool.shutdown pool4;
  Par.Pool.shutdown par_pool;
  if overhead_breach || scaling_breach then exit 1
