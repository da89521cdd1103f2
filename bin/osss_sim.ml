(* Run the OSSS decoder system models and print the paper's tables. *)

open Cmdliner

let mode_conv =
  let parse = function
    | "lossless" -> Ok Jpeg2000.Codestream.Lossless
    | "lossy" -> Ok Jpeg2000.Codestream.Lossy
    | other -> Error (`Msg (Printf.sprintf "unknown mode %S" other))
  in
  Arg.conv (parse, Jpeg2000.Codestream.pp_mode)

let payload_arg =
  Arg.(
    value & flag
    & info [ "no-payload" ]
        ~doc:
          "Skip the functional payload (timing-only simulation; faster, no \
           bit-exactness check).")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Emit the result as JSON instead of text.")

let mode_arg =
  Arg.(value & opt mode_conv Jpeg2000.Codestream.Lossless
       & info [ "m"; "mode" ] ~docv:"MODE" ~doc:"lossless or lossy.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the parallel decode engine (default 1 = \
           sequential). Results are bit-identical at any job count.")

(* [with_jobs] validates the flag and guarantees pool shutdown. *)
let with_jobs jobs f =
  if jobs < 1 then begin
    Printf.eprintf "osss_sim: --jobs must be >= 1 (got %d)\n" jobs;
    exit 2
  end;
  Par.Pool.with_jobs jobs f

(* Shared flag validation: every subcommand names the offending flag
   and value the same way and exits 2 on bad usage. *)
let require_min flag lo n =
  if n < lo then begin
    Printf.eprintf "osss_sim: --%s must be >= %d (got %d)\n" flag lo n;
    exit 2
  end

let require_max flag hi n =
  if n > hi then begin
    Printf.eprintf "osss_sim: --%s must be <= %d (got %d)\n" flag hi n;
    exit 2
  end

let parse_spec_flag flag parse s =
  match parse s with
  | Ok v -> v
  | Error msg ->
    Printf.eprintf "osss_sim: bad --%s: %s\n" flag msg;
    exit 2

let parse_version name =
  match Models.Experiment.version_of_name name with
  | Some v -> v
  | None ->
    Printf.eprintf "osss_sim: unknown version %S (use 1..5, 6a, 6b, 7a, 7b)\n"
      name;
    exit 2

let run_cmd =
  let run version_name mode no_payload json jobs =
    let version = parse_version version_name in
    let r =
      with_jobs jobs (fun pool ->
          Models.Experiment.run ~payload:(not no_payload) ~pool version mode)
    in
    if json then
      print_endline (Telemetry.Json.to_string (Models.Outcome.to_json r))
    else Format.printf "%a@." Models.Outcome.pp r;
    if r.Models.Outcome.functional_ok = Some false then exit 1
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one model version.")
    Term.(
      const run
      $ Arg.(
          required & pos 0 (some string) None & info [] ~docv:"VERSION" ~doc:"Model version.")
      $ mode_arg
      $ payload_arg
      $ json_arg
      $ jobs_arg)

let trace_cmd =
  let run version_name mode no_payload trace_path metrics_path vcd_path
      capacity =
    let version = parse_version version_name in
    let sink, r =
      Telemetry.Sink.with_sink ?capacity (fun () ->
          Models.Experiment.run ~payload:(not no_payload) version mode)
    in
    let events = Telemetry.Sink.events sink in
    Telemetry.Chrome.save trace_path events;
    (match metrics_path with
    | None -> ()
    | Some path -> Telemetry.Json.save path (Models.Outcome.to_json r));
    (match vcd_path with
    | None -> ()
    | Some path -> Telemetry.Vcd_export.save path events);
    Format.printf "%a@." Models.Outcome.pp r;
    let decode_ps =
      int_of_float (r.Models.Outcome.decode_ms *. 1e9 +. 0.5)
    in
    let coverage =
      if decode_ps = 0 then 0.0
      else
        100.0
        *. float_of_int (Telemetry.Event.union_ps events)
        /. float_of_int decode_ps
    in
    Format.printf "trace: %d events on %d tracks -> %s (%.1f%% of decode time covered)@."
      (List.length events)
      (List.length (Telemetry.Event.tracks events))
      trace_path coverage;
    if Telemetry.Sink.dropped sink > 0 then
      Format.printf
        "trace: WARNING %d events dropped by the --capacity ring — the \
         exported trace is incomplete (telemetry.dropped_events in the \
         metrics report)@."
        (Telemetry.Sink.dropped sink);
    (match metrics_path with
    | None -> ()
    | Some path -> Format.printf "metrics: %s@." path);
    (match vcd_path with
    | None -> ()
    | Some path -> Format.printf "vcd: %s@." path);
    if r.Models.Outcome.functional_ok = Some false then exit 1
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run one model version with telemetry enabled and export a \
          Chrome-trace JSON (open in ui.perfetto.dev or chrome://tracing).")
    Term.(
      const run
      $ Arg.(
          required
          & opt (some string) None
          & info [ "version" ] ~docv:"VERSION" ~doc:"Model version to trace.")
      $ mode_arg
      $ payload_arg
      $ Arg.(
          value & opt string "trace.json"
          & info [ "trace" ] ~docv:"FILE" ~doc:"Chrome-trace output path.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "metrics" ] ~docv:"FILE"
              ~doc:"Also write the outcome (with metrics) as JSON.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "vcd" ] ~docv:"FILE"
              ~doc:"Also write per-track span depth as a VCD dump.")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "capacity" ] ~docv:"N"
              ~doc:"Keep only the most recent N events (ring buffer)."))

let compare_cmd =
  let run version_names mode no_payload json jobs =
    let versions =
      match version_names with
      | [] -> Models.Experiment.all_versions
      | names -> List.map parse_version names
    in
    let results =
      with_jobs jobs (fun pool ->
          Models.Experiment.run_many ~payload:(not no_payload) ~pool versions
            mode)
    in
    (if json then
       print_endline
         (Telemetry.Json.to_string
            (Telemetry.Json.List (List.map Models.Outcome.to_json results)))
     else
       let baseline = List.hd results in
       let header =
         [ "version"; "decode [ms]"; "IDWT [ms]"; "speedup"; "functional" ]
       in
       let rows =
         List.map
           (fun (r : Models.Outcome.t) ->
             [
               r.Models.Outcome.version;
               Osss.Report.fmt_ms r.Models.Outcome.decode_ms;
               Osss.Report.fmt_ms r.Models.Outcome.idwt_ms;
               Osss.Report.fmt_factor (Models.Outcome.speedup_vs baseline r);
               (match r.Models.Outcome.functional_ok with
               | Some true -> "ok"
               | Some false -> "MISMATCH"
               | None -> "-");
             ])
           results
       in
       print_string (Osss.Report.render ~header rows));
    if
      List.exists
        (fun r -> r.Models.Outcome.functional_ok = Some false)
        results
    then exit 1
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Run several model versions on the same workload and tabulate \
          decode times and speedups (first version is the baseline).")
    Term.(
      const run
      $ Arg.(
          value & pos_all string []
          & info [] ~docv:"VERSION" ~doc:"Versions to compare (default: all nine).")
      $ mode_arg
      $ payload_arg
      $ json_arg
      $ jobs_arg)

let table1_cmd =
  let run no_payload = print_string (Models.Tables.table1 ~payload:(not no_payload) ()) in
  Cmd.v (Cmd.info "table1" ~doc:"Regenerate Table 1.") Term.(const run $ payload_arg)

let fig1_cmd =
  let run no_payload = print_string (Models.Tables.figure1 ~payload:(not no_payload) ()) in
  Cmd.v (Cmd.info "fig1" ~doc:"Regenerate the Figure 1 profile.") Term.(const run $ payload_arg)

let relations_cmd =
  let run no_payload =
    let report = Models.Tables.relations_report ~payload:(not no_payload) () in
    print_string report;
    if Str_contains.contains report "FAIL" then exit 1
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Evaluate the paper's in-text claims against the simulation.")
    Term.(const run $ payload_arg)

let campaign_cmd =
  let run seed rates mode versions unprotected ingest fleet json jobs =
    (* Every rate is a probability: reject a bad one before any run. *)
    Option.iter
      (List.iter (fun r ->
           ignore (parse_spec_flag "rates" (Spec.unit_interval "rate") r)))
      rates;
    if fleet then begin
      let rows =
        with_jobs jobs (fun pool ->
            Models.Campaign.run_fleet ~pool ~seed ~mode ())
      in
      if json then
        print_endline
          (Telemetry.Json.to_string (Models.Campaign.fleet_to_json rows))
      else print_string (Models.Campaign.render_fleet rows)
    end
    else if ingest then begin
      let rows =
        with_jobs jobs (fun pool ->
            Models.Campaign.run_ingest ~pool ~seed ?rates ~mode ())
      in
      if json then
        print_endline
          (Telemetry.Json.to_string (Models.Campaign.ingest_to_json rows))
      else print_string (Models.Campaign.render_ingest rows)
    end
    else
    let versions =
      match versions with
      | [] -> Models.Experiment.all_versions
      | names -> List.map parse_version names
    in
    let protection =
      if unprotected then Some Osss.Channel.Unprotected else None
    in
    let config =
      Models.Campaign.default ~seed ?rates ~mode ~versions ?protection ()
    in
    let rows = with_jobs jobs (fun pool -> Models.Campaign.run ~pool config) in
    if json then
      print_endline
        (Telemetry.Json.to_string (Models.Campaign.to_json config rows))
    else print_string (Models.Campaign.render config rows);
    let aborted =
      List.exists (fun r -> Result.is_error r.Models.Campaign.row_result) rows
    in
    let mismatch =
      List.exists
        (fun r ->
          match r.Models.Campaign.row_result with
          | Ok o -> o.Models.Outcome.functional_ok = Some false
          | Error _ -> false)
        rows
    in
    if mismatch then exit 1;
    ignore aborted
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Run the seeded fault-injection campaign and print the resilience \
          table. Deterministic: equal seeds print equal tables.")
    Term.(
      const run
      $ Arg.(value & opt int 2008 & info [ "seed" ] ~docv:"SEED" ~doc:"Campaign seed.")
      $ Arg.(
          value
          & opt (some (list float)) None
          & info [ "rates" ] ~docv:"R1,R2,..."
              ~doc:"Fault rates to sweep (default 0,0.001,0.01,0.05).")
      $ Arg.(value & opt mode_conv Jpeg2000.Codestream.Lossless
             & info [ "m"; "mode" ] ~docv:"MODE" ~doc:"lossless or lossy.")
      $ Arg.(
          value
          & opt (list string) []
          & info [ "versions" ] ~docv:"V1,V2,..."
              ~doc:"Model versions to include (default: all nine).")
      $ Arg.(
          value & flag
          & info [ "unprotected" ]
              ~doc:"Disable the CRC/retry channel hardening.")
      $ Arg.(
          value & flag
          & info [ "ingest" ]
              ~doc:
                "Sweep the ingest-fault axis instead: chunk \
                 loss/dup/reorder/stall on the byte-arrival path through \
                 the decode service (--versions and --unprotected are \
                 ignored).")
      $ Arg.(
          value & flag
          & info [ "fleet" ]
              ~doc:
                "Sweep the fleet-scaling axis instead: one fixed workload \
                 over a (replica count x shared-L2 size) grid (--rates, \
                 --versions and --unprotected are ignored).")
      $ json_arg
      $ jobs_arg)

(* -- serve / fleet --------------------------------------------------- *)

(* The corpus [serve], [fleet] and [profile] decode: default-size
   streams seeded 2008, 2009, ... *)
let cli_corpus streams mode =
  Array.init streams (fun i -> Models.Workload.codestream ~seed:(2008 + i) mode)

(* A library refusal of a config or a spec is a usage error. *)
let or_exit2 f =
  try f ()
  with Invalid_argument msg ->
    Printf.eprintf "osss_sim: %s\n" msg;
    exit 2

(* The flags [serve] and [fleet] share. Validation is deferred to the
   returned thunk so each subcommand still checks its own spec flags
   first. *)
type serving = {
  streams : int;
  mode : Jpeg2000.Codestream.mode;
  service : Serve.Service.config;  (** without ingest *)
  trace : string option;
  json : bool;
  jobs : int;
}

let serving_term ~streams ~queue_doc ~cache_doc ~trace_doc =
  let validate streams mode queue policy cache batch trace json jobs () =
    let overload =
      parse_spec_flag "policy" Serve.Service.overload_of_string policy
    in
    require_min "streams" 1 streams;
    require_min "queue" 1 queue;
    require_min "batch" 1 batch;
    require_min "cache" 0 cache;
    {
      streams;
      mode;
      service =
        {
          Serve.Service.queue_capacity = queue;
          overload;
          cache_capacity = cache;
          max_batch = batch;
          ingest = None;
        };
      trace;
      json;
      jobs;
    }
  in
  let default = Serve.Service.default_config in
  Term.(
    const validate
    $ Arg.(
        value & opt int streams
        & info [ "streams" ] ~docv:"N" ~doc:"Distinct codestreams in the corpus.")
    $ mode_arg
    $ Arg.(
        value & opt int default.Serve.Service.queue_capacity
        & info [ "queue" ] ~docv:"N" ~doc:queue_doc)
    $ Arg.(
        value & opt string "reject"
        & info [ "policy" ] ~docv:"POLICY"
            ~doc:"Overload policy: reject, drop-oldest or degrade.")
    $ Arg.(
        value & opt int default.Serve.Service.cache_capacity
        & info [ "cache" ] ~docv:"N" ~doc:cache_doc)
    $ Arg.(
        value & opt int default.Serve.Service.max_batch
        & info [ "batch" ] ~docv:"N" ~doc:"Max requests coalesced per dispatch.")
    $ Arg.(
        value
        & opt (some string) None
        & info [ "trace" ] ~docv:"FILE" ~doc:trace_doc)
    $ json_arg
    $ jobs_arg)

(* Runs [serve] on the --jobs pool, under a sink exported to --trace
   when one is named, and prints the report as --json or text. *)
let serve_and_print s serve to_json pp =
  let report =
    match s.trace with
    | None -> with_jobs s.jobs serve
    | Some path ->
      let sink, report =
        Telemetry.Sink.with_sink (fun () -> with_jobs s.jobs serve)
      in
      Telemetry.Chrome.save path (Telemetry.Sink.events sink);
      report
  in
  if s.json then print_endline (Telemetry.Json.to_string (to_json report))
  else Format.printf "%a@." pp report

let serve_cmd =
  let run workload ingest serving =
    let spec = parse_spec_flag "workload" Serve.Request.parse_spec workload in
    let s = serving () in
    let ingest =
      Option.map (parse_spec_flag "ingest" Faults.Ingest.parse_spec) ingest
    in
    let service =
      or_exit2 (fun () ->
          Serve.Service.create
            ~config:{ s.service with Serve.Service.ingest }
            (cli_corpus s.streams s.mode))
    in
    serve_and_print s
      (fun pool -> Serve.Service.run ~pool service spec)
      Serve.Service.report_to_json Serve.Service.pp_report
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve a seeded request workload through the deterministic decode \
          service (admission control, EDF batching, tile cache). Equal seeds \
          print equal reports at any --jobs.")
    Term.(
      const run
      $ Arg.(
          value & opt string "open:n=64,rate=400,seed=11"
          & info [ "workload" ] ~docv:"SPEC"
              ~doc:
                "Workload spec: open:n=N,rate=RPS,seed=S[,deadline=MS]\
                 [,region=F][,reduced=F] or \
                 closed:n=N,clients=C,think=MS,seed=S[,...].")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "ingest" ] ~docv:"SPEC"
              ~doc:
                "Stream request bytes chunk by chunk instead of whole: \
                 chunk=BYTES,gap_us=US,loss=P,dup=P,reorder=P,window=N,\
                 stall=P,stall_us=US (every key optional; empty string = \
                 fault-free streaming). Stalled requests are flushed \
                 best-effort at their deadline.")
      $ serving_term ~streams:3 ~queue_doc:"Request queue capacity."
          ~cache_doc:"Decoded-tile cache capacity (0 disables)."
          ~trace_doc:"Export the service timeline as Chrome-trace JSON.")

let fleet_cmd =
  let run workload fleet_spec serving =
    let spec = parse_spec_flag "workload" Serve.Request.parse_spec workload in
    let fconfig = parse_spec_flag "fleet" Fleet.parse_config fleet_spec in
    let s = serving () in
    let fleet =
      or_exit2 (fun () ->
          Fleet.create ~config:fconfig ~service:s.service
            (cli_corpus s.streams s.mode))
    in
    serve_and_print s
      (fun pool -> or_exit2 (fun () -> Fleet.run ~pool fleet spec))
      Fleet.report_to_json Fleet.pp_report
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Serve a seeded open-loop workload through a sharded decode fleet: \
          replicated services behind a consistent-hash balancer, a shared L2 \
          tile cache, and (with min < max) an autoscaler on the virtual \
          clock. Equal seeds print equal reports at any --jobs.")
    Term.(
      const run
      $ Arg.(
          value & opt string "open:n=96,rate=1200,seed=11"
          & info [ "workload" ] ~docv:"SPEC"
              ~doc:
                "Workload spec (open loop only): \
                 open:n=N,rate=RPS,seed=S[,deadline=MS][,region=F]\
                 [,reduced=F].")
      $ Arg.(
          value & opt string ""
          & info [ "fleet" ] ~docv:"SPEC"
              ~doc:
                "Fleet spec: replicas=N[,min=N][,max=N][,vnodes=N][,l2=N]\
                 [,l2_us=US][,spill=0|1][,up=F][,down=F][,slo=F]\
                 [,interval=MS][,warmup=MS][,seed=S] (every key optional; \
                 min < max enables the autoscaler).")
      $ serving_term ~streams:6
          ~queue_doc:"Per-replica request queue capacity."
          ~cache_doc:"Per-replica L1 tile cache capacity (0 disables)."
          ~trace_doc:
            "Export the fleet timeline as Chrome-trace JSON (one track per \
             replica plus the front end).")

(* -- profile ----------------------------------------------------------- *)

(* The profiling scenario is deterministic end to end: one traced model
   run (kernel-process and decoder-stage spans) plus one traced serve
   workload (queue/exec/sched/ingest spans with latency exemplars),
   folded into a single cost tree with the T1 code-block classes
   grafted in from their counters. Everything in the tree is virtual
   time, so the tree, its JSON and the collapsed stacks are
   byte-identical across reruns and any --jobs. The traced-kernel
   overhead ratio is the one wall-clock measurement; it is reported
   next to the tree, never inside it. *)

let profile_ping_pong () =
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

(* traced / plain wall time of the kernel ping-pong, best of a few
   rounds so scheduler noise biases both sides equally *)
let measure_kernel_overhead () =
  let time_of f =
    let best = ref infinity in
    for _ = 1 to 5 do
      let t0 = Sys.time () in
      for _ = 1 to 20 do
        f ()
      done;
      let dt = Sys.time () -. t0 in
      if dt < !best then best := dt
    done;
    !best
  in
  ignore (time_of profile_ping_pong);
  (* warm-up *)
  let plain = time_of profile_ping_pong in
  let traced =
    time_of (fun () ->
        ignore (Telemetry.Sink.with_sink profile_ping_pong : Telemetry.Sink.t * unit))
  in
  if plain <= 0.0 then 1.0 else traced /. plain

let ms_of_self_ps ps = float_of_int ps /. 1e9

let profile_cmd =
  let run version_name workload streams mode jobs flame_path out_path json
      check baseline_path write_baseline =
    let version = parse_version version_name in
    let spec = parse_spec_flag "workload" Serve.Request.parse_spec workload in
    require_min "streams" 1 streams;
    let model_sink, (_ : Models.Outcome.t) =
      Telemetry.Sink.with_sink (fun () ->
          Models.Experiment.run ~payload:false version mode)
    in
    let service =
      or_exit2 (fun () ->
          Serve.Service.create ~config:Serve.Service.default_config
            (cli_corpus streams mode))
    in
    let serve_sink, report =
      Telemetry.Sink.with_sink (fun () ->
          with_jobs jobs (fun pool -> Serve.Service.run ~pool service spec))
    in
    let sreport = Telemetry.Sink.report serve_sink in
    let profile =
      Telemetry.Profile.of_events
        (Telemetry.Sink.events model_sink @ Telemetry.Sink.events serve_sink)
    in
    (* T1 classes live as counters (priced in ps at staging time);
       graft them in as a synthetic track. *)
    let t1_leaves =
      List.filter_map
        (fun (key, ps) ->
          match String.split_on_char '.' key with
          | [ "t1"; "class"; cls; "ps" ] ->
            let blocks =
              Telemetry.Report.counter sreport ("t1.class." ^ cls ^ ".blocks")
            in
            Some ([ "class"; cls ], ps, blocks)
          | _ -> None)
        sreport.Telemetry.Report.counters
    in
    let profile =
      if t1_leaves = [] then profile
      else Telemetry.Profile.add_synthetic profile ~track:"t1" t1_leaves
    in
    let overhead = measure_kernel_overhead () in
    let latency_dist = Telemetry.Report.dist sreport "serve.latency_us" in
    let p99_exemplar =
      Option.bind latency_dist (fun d ->
          Telemetry.Report.quantile_exemplar d 0.99)
    in
    let metric_value name =
      match name with
      | "serve_p99_ms" -> Some report.Serve.Service.latency.Serve.Service.p99_ms
      | "cache_hit_rate" -> Some report.Serve.Service.cache_hit_rate
      | "traced_kernel_overhead" -> Some overhead
      | "dropped_events" ->
        Some
          (float_of_int
             (Telemetry.Report.counter sreport "telemetry.dropped_events"))
      | _ ->
        let lookup prefix value =
          if String.starts_with ~prefix name then
            let path =
              String.sub name (String.length prefix)
                (String.length name - String.length prefix)
            in
            Option.map value (Telemetry.Profile.find profile path)
          else None
        in
        (match
           lookup "self_ms:" (fun n ->
               ms_of_self_ps n.Telemetry.Profile.self_ps)
         with
        | Some v -> Some v
        | None ->
          lookup "total_ms:" (fun n ->
              ms_of_self_ps n.Telemetry.Profile.total_ps))
    in
    let top = Telemetry.Profile.top_self ~n:3 profile in
    (* Scheduling balance of the serve run's pool maps. The counter
       family is deterministic except [steals] (which chunk ran where
       depends on the schedule) — that is why this lands in
       profile.json, which is informational, and never in the
       byte-diffed profile.folded. *)
    let sched_json =
      let open Telemetry.Json in
      let c name = Telemetry.Report.counter sreport ("par.map." ^ name) in
      Obj
        [
          ("jobs", Int jobs);
          ("map_calls", Int (c "calls"));
          ("map_jobs", Int (c "jobs"));
          ("sequential", Int (c "sequential"));
          ("chunks", Int (c "chunks"));
          ("steals", Int (c "steals"));
        ]
    in
    let profile_json =
      let open Telemetry.Json in
      Obj
        [
          ("version", Str version_name);
          ("workload", Str (Serve.Request.spec_to_string spec));
          ("streams", Int streams);
          ("sched", sched_json);
          ( "metrics",
            Obj
              [
                ( "serve_p99_ms",
                  Float report.Serve.Service.latency.Serve.Service.p99_ms );
                ("cache_hit_rate", Float report.Serve.Service.cache_hit_rate);
                ("traced_kernel_overhead", Float overhead);
                ( "dropped_events",
                  Int (Telemetry.Report.counter sreport "telemetry.dropped_events")
                );
              ] );
          ( "top_self",
            List
              (Stdlib.List.map
                 (fun (path, self) ->
                   Obj
                     [
                       ("path", Str path);
                       ("self_ps", Int self);
                       ("self_ms", Float (ms_of_self_ps self));
                     ])
                 top) );
          ( "p99_exemplar",
            match p99_exemplar with
            | None -> Null
            | Some e ->
              Obj
                [
                  ("request", Int e.Telemetry.Metrics.ex_id);
                  ("trace", Str e.Telemetry.Metrics.ex_trace);
                  ("latency_us", Int e.Telemetry.Metrics.ex_value);
                ] );
          ("tree", Telemetry.Profile.to_json profile);
          ("telemetry", Telemetry.Report.to_json sreport);
        ]
    in
    (match flame_path with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      output_string oc (Telemetry.Profile.collapsed profile);
      close_out oc);
    (match out_path with
    | None -> ()
    | Some path -> Telemetry.Json.save path profile_json);
    if json then print_endline (Telemetry.Json.to_string profile_json)
    else begin
      Format.printf "profile: %s + serve %s (%d streams, --jobs %d)@."
        version_name
        (Serve.Request.spec_to_string spec)
        streams jobs;
      Format.printf "tracks: %s@."
        (String.concat ", " (Telemetry.Profile.tracks profile));
      Format.printf "top self-time stages:@.";
      Stdlib.List.iter
        (fun (path, self) ->
          Format.printf "  %-48s %.3f ms@." path (ms_of_self_ps self))
        top;
      Format.printf "serve p99: %.3f ms   cache hit rate: %.1f%%@."
        report.Serve.Service.latency.Serve.Service.p99_ms
        (100.0 *. report.Serve.Service.cache_hit_rate);
      (match p99_exemplar with
      | None -> ()
      | Some e ->
        Format.printf "p99 exemplar: request %d  trace %s  (%d us)@."
          e.Telemetry.Metrics.ex_id e.Telemetry.Metrics.ex_trace
          e.Telemetry.Metrics.ex_value);
      Format.printf "traced-kernel overhead: %.2fx (wall, not in the tree)@."
        overhead;
      (match flame_path with
      | None -> ()
      | Some path -> Format.printf "flamegraph: %s@." path);
      match out_path with
      | None -> ()
      | Some path -> Format.printf "profile json: %s@." path
    end;
    if write_baseline then begin
      let open Telemetry.Json in
      let stage_checks =
        Stdlib.List.map
          (fun (path, self) ->
            Obj
              [
                ("metric", Str ("self_ms:" ^ path));
                ("value", Float (ms_of_self_ps self));
                ("tol_pct", Float 10.0);
              ])
          top
      in
      let checks =
        [
          Obj
            [
              ("metric", Str "serve_p99_ms");
              ( "value",
                Float report.Serve.Service.latency.Serve.Service.p99_ms );
              ("tol_pct", Float 30.0);
            ];
          Obj
            [
              ("metric", Str "cache_hit_rate");
              ( "min",
                Float
                  (Stdlib.max 0.0
                     (report.Serve.Service.cache_hit_rate -. 0.10)) );
            ];
          Obj
            [
              ("metric", Str "traced_kernel_overhead");
              (* wall-clock: generous bound so CI hosts do not flake *)
              ("max", Float 2.5);
            ];
          Obj [ ("metric", Str "dropped_events"); ("max", Float 0.0) ];
        ]
        @ stage_checks
      in
      let baseline =
        Obj
          [
            ("scenario", Str (version_name ^ "+" ^ Serve.Request.spec_to_string spec));
            ("checks", List checks);
          ]
      in
      Telemetry.Json.save baseline_path baseline;
      Format.printf "baseline written: %s@." baseline_path
    end;
    if check then begin
      match Telemetry.Json.load baseline_path with
      | Error msg ->
        Printf.eprintf "osss_sim profile --check: %s: %s\n" baseline_path msg;
        exit 1
      | Ok baseline ->
        let checks =
          match
            Option.bind
              (Telemetry.Json.member "checks" baseline)
              Telemetry.Json.to_list_opt
          with
          | Some checks -> checks
          | None ->
            Printf.eprintf
              "osss_sim profile --check: %s has no \"checks\" array\n"
              baseline_path;
            exit 1
        in
        let breaches = ref 0 in
        Stdlib.List.iter
          (fun entry ->
            let str key =
              Option.bind (Telemetry.Json.member key entry)
                Telemetry.Json.to_string_opt
            in
            let num key =
              Option.bind (Telemetry.Json.member key entry)
                Telemetry.Json.to_float_opt
            in
            match str "metric" with
            | None ->
              incr breaches;
              Format.printf "BREACH  (malformed check entry: no metric)@."
            | Some metric -> (
              match metric_value metric with
              | None ->
                incr breaches;
                Format.printf "BREACH  %-44s not present in this run@." metric
              | Some actual ->
                let verdict, bound =
                  match (num "value", num "tol_pct", num "min", num "max") with
                  | Some v, tol, _, _ ->
                    let tol = Option.value tol ~default:0.0 in
                    let slack = Float.abs v *. tol /. 100.0 in
                    ( Float.abs (actual -. v) <= slack,
                      Printf.sprintf "%g +/- %g%%" v tol )
                  | None, _, Some lo, None ->
                    (actual >= lo, Printf.sprintf ">= %g" lo)
                  | None, _, None, Some hi ->
                    (actual <= hi, Printf.sprintf "<= %g" hi)
                  | None, _, Some lo, Some hi ->
                    ( actual >= lo && actual <= hi,
                      Printf.sprintf "in [%g, %g]" lo hi )
                  | None, _, None, None -> (false, "no bound declared")
                in
                if not verdict then incr breaches;
                Format.printf "%s  %-44s %.6g  (%s)@."
                  (if verdict then "ok    " else "BREACH")
                  metric actual bound))
          checks;
        if !breaches > 0 then begin
          Format.printf "profile check: %d breach(es) against %s@." !breaches
            baseline_path;
          exit 1
        end
        else Format.printf "profile check: all checks within %s@." baseline_path
    end
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Fold a traced model run and a traced serve workload into a \
          deterministic cost tree (self/total virtual-time per kernel \
          process, decoder stage, T1 code-block class and serve phase); \
          export collapsed stacks for flamegraphs and gate key metrics \
          against PERF_baseline.json.")
    Term.(
      const run
      $ Arg.(
          value & opt string "7b"
          & info [ "version" ] ~docv:"VERSION" ~doc:"Model version to profile.")
      $ Arg.(
          value & opt string "open:n=64,rate=400,seed=11"
          & info [ "workload" ] ~docv:"SPEC" ~doc:"Serve workload spec.")
      $ Arg.(
          value & opt int 3
          & info [ "streams" ] ~docv:"N" ~doc:"Codestreams in the serve corpus.")
      $ mode_arg
      $ jobs_arg
      $ Arg.(
          value
          & opt (some string) None
          & info [ "flame" ] ~docv:"FILE"
              ~doc:
                "Write collapsed-stack text (one 'path self_ps' line per \
                 node; feed to flamegraph.pl). Byte-identical across reruns \
                 and --jobs.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "out" ] ~docv:"FILE" ~doc:"Write the profile as JSON.")
      $ json_arg
      $ Arg.(
          value & flag
          & info [ "check" ]
              ~doc:
                "Compare this run against the baseline's declared \
                 tolerances; exit 1 on any breach.")
      $ Arg.(
          value & opt string "PERF_baseline.json"
          & info [ "baseline" ] ~docv:"FILE" ~doc:"Baseline path.")
      $ Arg.(
          value & flag
          & info [ "write-baseline" ]
              ~doc:"Write a fresh baseline from this run's values."))

let mapping_cmd =
  let tasks_doc =
    Printf.sprintf "SW task count, 1 to %d (the most the case study maps)."
      Models.Experiment.sw_parallel_tasks
  in
  let run sw_tasks idwt_p2p =
    require_min "tasks" 1 sw_tasks;
    require_max "tasks" Models.Experiment.sw_parallel_tasks sw_tasks;
    let vta = Models.Vta_models.mapping ~sw_tasks ~idwt_p2p in
    Format.printf "%a@." Osss.Vta.pp vta
  in
  Cmd.v
    (Cmd.info "mapping" ~doc:"Show the VTA mapping registry.")
    Term.(
      const run
      $ Arg.(value & opt int 1 & info [ "tasks" ] ~docv:"N" ~doc:tasks_doc)
      $ Arg.(value & flag & info [ "p2p" ] ~doc:"IDWT blocks on point-to-point channels."))

let () =
  let doc = "OSSS JPEG 2000 decoder system simulation" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "osss_sim" ~doc)
          [ run_cmd; trace_cmd; compare_cmd; table1_cmd; fig1_cmd;
            relations_cmd; campaign_cmd; serve_cmd; fleet_cmd; profile_cmd;
            mapping_cmd ]))
