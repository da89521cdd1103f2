type config = {
  seed : int;
  rates : float list;
  mode : Profile.mode;
  versions : Experiment.version list;
  protection : Osss.Channel.protection;
}

let default ?(seed = 2008) ?(rates = [ 0.0; 0.001; 0.01; 0.05 ])
    ?(mode = Jpeg2000.Codestream.Lossless)
    ?(versions = Experiment.all_versions)
    ?(protection = Osss.Channel.Crc_retry) () =
  { seed; rates; mode; versions; protection }

type row = {
  row_version : string;
  row_rate : float;
  row_result : (Outcome.t, string) result;
  row_inflation : float;  (** decode time vs the clean unprotected run *)
  row_psnr_db : float;  (** concealment fidelity vs the clean decode *)
}

(* Deterministic per-run seed: a pure hash of (campaign seed, version
   index, rate index), so adding a version or rate never reshuffles
   the other runs' fault patterns. *)
let run_seed config ~vi ~ri =
  Int64.to_int
    (Int64.logand
       (Faults.Rng.hash64
          (Int64.of_int config.seed)
          (Int64.of_int ((vi * 8191) + ri)))
       Int64.max_int)

(* The sweep couples the three fault surfaces to one rate knob:
   [rate] per channel-frame corruption, [rate / 4] per payload byte
   for stream damage, plus mild stall jitter at [rate]. *)
let fault_rates rate =
  {
    (Faults.Engine.channel_only rate) with
    Faults.Engine.stall_probability = rate;
    stall_max_cycles = 2000;
  }

let stream_rate rate = rate /. 4.0

let run_one config ~vi ~ri ~baseline version rate =
  if rate = 0.0 then (baseline, Float.infinity)
  else begin
    let seed = run_seed config ~vi ~ri in
    let w = Workload.make ~corrupt:(seed, stream_rate rate) config.mode in
    let engine = Faults.Engine.create ~seed (fault_rates rate) in
    let outcome =
      Faults.Engine.with_engine engine (fun () ->
          Experiment.run_workload ~protection:config.protection version w)
    in
    (outcome, Workload.psnr_db w)
  end

(* Every grid point's seed is a pure function of its (version, rate)
   indices and every run's fault state is domain-local, so the grid
   fans out over [pool] without reshuffling a single fault pattern:
   the row list is identical on any pool. Grid points are whole model
   simulations with wildly uneven cost, so both fan-outs steal at
   single-item granularity. *)
let run ?(pool = Par.Pool.sequential) config =
  let versions = Array.of_list config.versions in
  let rates = Array.of_list config.rates in
  let nrates = Array.length rates in
  (* Baseline: the clean, unprotected run — no hooks, bare channels,
     the seed configuration itself. Computed once per version whether
     or not 0.0 is swept; a 0.0 row reports it directly. *)
  let baselines =
    Par.Pool.map ~chunk:1 pool versions (fun version ->
        Experiment.run_workload version (Workload.make config.mode))
  in
  let grid =
    Array.init
      (Array.length versions * nrates)
      (fun i -> (i / nrates, i mod nrates))
  in
  let rows =
    Par.Pool.map ~chunk:1 pool grid (fun (vi, ri) ->
        let version = versions.(vi) and rate = rates.(ri) in
        let baseline = baselines.(vi) in
        let result =
          try
            let outcome, psnr = run_one config ~vi ~ri ~baseline version rate in
            Ok (outcome, psnr)
          with
          | Osss.Channel.Transfer_failed { link; what; attempts } ->
            Error
              (Printf.sprintf "aborted: %s gave up on %s after %d attempts"
                 link what attempts)
          | Failure msg -> Error ("aborted: " ^ msg)
          | Invalid_argument msg -> Error ("aborted: " ^ msg)
        in
        let inflation =
          match result with
          | Ok (o, _) -> o.Outcome.decode_ms /. baseline.Outcome.decode_ms
          | Error _ -> Float.nan
        in
        {
          row_version = Experiment.version_name version;
          row_rate = rate;
          row_result = Result.map fst result;
          row_inflation = inflation;
          row_psnr_db =
            (match result with Ok (_, p) -> p | Error _ -> Float.nan);
        })
  in
  Array.to_list rows

let float_or_null f =
  if Float.is_nan f then Telemetry.Json.Null
  else if f = Float.infinity then Telemetry.Json.Str "inf"
  else Telemetry.Json.Float f

let row_to_json r =
  Telemetry.Json.Obj
    [
      ("version", Telemetry.Json.Str r.row_version);
      ("rate", Telemetry.Json.Float r.row_rate);
      ( "result",
        match r.row_result with
        | Ok o -> Outcome.to_json o
        | Error msg ->
          Telemetry.Json.Obj [ ("error", Telemetry.Json.Str msg) ] );
      ("inflation", float_or_null r.row_inflation);
      ("psnr_db", float_or_null r.row_psnr_db);
    ]

let to_json config rows =
  Telemetry.Json.Obj
    [
      ("seed", Telemetry.Json.Int config.seed);
      ("mode", Telemetry.Json.Str (Outcome.mode_string config.mode));
      ( "rates",
        Telemetry.Json.List
          (List.map (fun r -> Telemetry.Json.Float r) config.rates) );
      ("rows", Telemetry.Json.List (List.map row_to_json rows));
    ]

let fmt_psnr p =
  if Float.is_nan p then "-"
  else if p = Float.infinity then "inf"
  else Printf.sprintf "%.1f" p

(* -- ingest sweep ------------------------------------------------------
   The second fault axis: damage on the byte-arrival path instead of
   inside the platform. One rate knob couples chunk loss, duplication,
   reordering and stall jitter; each swept rate runs the full decode
   service with that ingest profile, so the table shows when streams
   stop landing before their deadlines and what the best-effort
   flushes cost in fidelity. *)

type ingest_row = { ing_rate : float; ing_report : Serve.Service.report }

let ingest_spec rate =
  let cap f = Stdlib.min 1.0 f in
  {
    Faults.Ingest.default_spec with
    Faults.Ingest.profile =
      {
        Faults.Ingest.loss = cap rate;
        dup = cap (rate /. 2.0);
        reorder = cap rate;
        window = 4;
        stall = cap (2.0 *. rate);
        stall_max_ps = 2_000_000_000 (* 2 ms: enough to blow a deadline *);
      };
  }

(* The workload is fixed apart from the campaign seed: an open-loop
   trickle whose deadline comfortably clears a fault-free delivery
   (~10 ms for the default chunk/gap), so every flush in the table is
   attributable to the injected ingest faults. *)
let ingest_workload seed =
  let spec = Printf.sprintf "open:n=24,rate=200,seed=%d,deadline=20" seed in
  match Serve.Request.parse_spec spec with
  | Ok s -> s
  | Error msg -> invalid_arg ("Campaign.ingest_workload: " ^ msg)

let run_ingest ?(pool = Par.Pool.sequential) ?(seed = 2008)
    ?(rates = [ 0.0; 0.01; 0.05; 0.2 ])
    ?(mode = Jpeg2000.Codestream.Lossless) () =
  let corpus =
    Array.init 2 (fun i -> Workload.codestream ~seed:(seed + i) mode)
  in
  let spec = ingest_workload seed in
  List.map
    (fun rate ->
      let config =
        {
          Serve.Service.default_config with
          Serve.Service.ingest = Some (ingest_spec rate);
        }
      in
      let service = Serve.Service.create ~config corpus in
      { ing_rate = rate; ing_report = Serve.Service.run ~pool service spec })
    rates

let ingest_to_json rows =
  Telemetry.Json.List
    (List.map
       (fun r ->
         Telemetry.Json.Obj
           [
             ("rate", Telemetry.Json.Float r.ing_rate);
             ("report", Serve.Service.report_to_json r.ing_report);
           ])
       rows)

let render_ingest rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "Ingest-fault campaign\n\n";
  let header =
    [
      "rate"; "served"; "flushed"; "failed"; "lost"; "reordered";
      "concealed"; "PSNR [dB]"; "p95 [ms]"; "SLO miss";
    ]
  in
  let table_rows =
    List.map
      (fun r ->
        let rep = r.ing_report in
        let i =
          match rep.Serve.Service.ingest with
          | Some i -> i
          | None -> assert false
        in
        [
          Printf.sprintf "%g" r.ing_rate;
          string_of_int rep.Serve.Service.served;
          string_of_int i.Serve.Service.ing_flushed;
          string_of_int i.Serve.Service.ing_flush_failed;
          string_of_int i.Serve.Service.ing_chunks_lost;
          string_of_int i.Serve.Service.ing_chunks_reordered;
          Printf.sprintf "%db/%dt" i.Serve.Service.ing_flush_concealed_blocks
            i.Serve.Service.ing_flush_concealed_tiles;
          fmt_psnr i.Serve.Service.ing_flush_psnr_db;
          Printf.sprintf "%.3f" rep.Serve.Service.latency.Serve.Service.p95_ms;
          string_of_int rep.Serve.Service.slo_misses;
        ])
      rows
  in
  Buffer.add_string buf (Osss.Report.render ~header table_rows);
  Buffer.contents buf

(* -- fleet sweep -------------------------------------------------------
   The scaling axis: the same fixed open-loop workload served by
   fleets of growing replica count, with and without the shared L2
   tile cache. Autoscaling is pinned off (min = max) at every grid
   point so each row isolates one (replica count, L2 size) pair; the
   workload rate is chosen to saturate the single-replica fleet, so
   the table shows rejections falling and tail latency recovering as
   replicas are added, and the L2 columns price what the shared cache
   buys at each scale. Deterministic like the other sweeps. *)

type fleet_row = { fl_replicas : int; fl_l2 : int; fl_report : Fleet.report }

let fleet_workload seed =
  let spec =
    Printf.sprintf "open:n=96,rate=1500,seed=%d,deadline=30,reduced=0.25" seed
  in
  match Serve.Request.parse_spec spec with
  | Ok s -> s
  | Error msg -> invalid_arg ("Campaign.fleet_workload: " ^ msg)

let run_fleet ?(pool = Par.Pool.sequential) ?(seed = 2008)
    ?(mode = Jpeg2000.Codestream.Lossless) () =
  let corpus =
    Array.init 6 (fun i -> Workload.codestream ~seed:(seed + i) mode)
  in
  (* a deliberately small L1 per replica, so the L2 column measures
     real sharing rather than private-cache capacity *)
  let service =
    { Serve.Service.default_config with Serve.Service.cache_capacity = 16 }
  in
  let spec = fleet_workload seed in
  List.concat_map
    (fun r ->
      List.map
        (fun l2 ->
          let config =
            {
              Fleet.default_config with
              Fleet.replicas = r;
              min_replicas = r;
              max_replicas = r;
              l2_capacity = l2;
            }
          in
          let fleet = Fleet.create ~config ~service corpus in
          { fl_replicas = r; fl_l2 = l2; fl_report = Fleet.run ~pool fleet spec })
        [ 0; 256 ])
    [ 1; 2; 4; 8 ]

let fleet_to_json rows =
  Telemetry.Json.List
    (List.map
       (fun r ->
         Telemetry.Json.Obj
           [
             ("replicas", Telemetry.Json.Int r.fl_replicas);
             ("l2", Telemetry.Json.Int r.fl_l2);
             ("report", Fleet.report_to_json r.fl_report);
           ])
       rows)

let render_fleet rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "Fleet scaling campaign\n\n";
  let header =
    [
      "replicas"; "L2"; "served"; "rejected"; "spilled"; "req/s";
      "p50 [ms]"; "p99 [ms]"; "SLO miss"; "L1 hit"; "L2 hit";
    ]
  in
  let table_rows =
    List.map
      (fun r ->
        let rep = r.fl_report in
        [
          string_of_int r.fl_replicas;
          (if r.fl_l2 = 0 then "off" else string_of_int r.fl_l2);
          string_of_int rep.Fleet.served;
          string_of_int rep.Fleet.rejected;
          string_of_int rep.Fleet.spilled;
          Printf.sprintf "%.0f" rep.Fleet.throughput_rps;
          Printf.sprintf "%.3f" rep.Fleet.latency.Serve.Service.p50_ms;
          Printf.sprintf "%.3f" rep.Fleet.latency.Serve.Service.p99_ms;
          string_of_int rep.Fleet.slo_misses;
          Printf.sprintf "%.1f%%" (100.0 *. rep.Fleet.l1.Fleet.hit_rate);
          (match rep.Fleet.l2 with
          | None -> "-"
          | Some l ->
            Printf.sprintf "%.1f%%" (100.0 *. l.Fleet.l2_tier.Fleet.hit_rate));
        ])
      rows
  in
  Buffer.add_string buf (Osss.Report.render ~header table_rows);
  Buffer.contents buf

let fmt_inflation f =
  if Float.is_nan f then "-" else Printf.sprintf "%.4fx" f

let render config rows =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf
       "Fault campaign: seed %d, %s, %s\n\n"
       config.seed
       (Format.asprintf "%a mode" Jpeg2000.Codestream.pp_mode config.mode)
       (Osss.Channel.describe_protection config.protection));
  let header =
    [
      "version"; "rate"; "decode [ms]"; "inflation"; "retry [ms]"; "retries";
      "giveups"; "miss"; "concealed"; "PSNR [dB]"; "functional";
    ]
  in
  let table_rows =
    List.map
      (fun r ->
        match r.row_result with
        | Ok o ->
          let res = o.Outcome.resilience in
          [
            r.row_version;
            Printf.sprintf "%g" r.row_rate;
            Osss.Report.fmt_ms o.Outcome.decode_ms;
            fmt_inflation r.row_inflation;
            Printf.sprintf "%.3f" res.Outcome.retry_ms;
            string_of_int res.Outcome.retries;
            string_of_int res.Outcome.giveups;
            string_of_int res.Outcome.deadline_misses;
            Printf.sprintf "%db/%dt" res.Outcome.concealed_blocks
              res.Outcome.concealed_tiles;
            fmt_psnr r.row_psnr_db;
            (match o.Outcome.functional_ok with
            | Some true -> "ok"
            | Some false -> "MISMATCH"
            | None -> "-");
          ]
        | Error msg ->
          [
            r.row_version; Printf.sprintf "%g" r.row_rate; "-"; "-"; "-"; "-";
            "-"; "-"; "-"; "-"; msg;
          ])
      rows
  in
  Buffer.add_string buf (Osss.Report.render ~header table_rows);
  Buffer.contents buf
