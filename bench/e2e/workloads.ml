(* The six workloads. Each builds its inputs from the seed, proves its
   outputs correct once outside any timed interval, then exposes one
   timed round and one traced replay through the layers' public
   functions. Every corpus is the case-study encoder configuration
   (Models.Workload.codestream: 32x32 tiles, 3 levels, 16x16 code
   blocks, 3 components) at 256x256. *)

open Harness
module D = Jpeg2000.Decoder
module S = Serve.Service

(* One timed round: the operations it completed, attempted and failed.
   The harness times it (Harness.timed_round); a round calls
   [calibration_point] between operations and wraps its output checks
   in [untimed]. *)
type round = { ops : int; attempted : int; failed : int }

type instance = {
  verify : unit -> int * int;
      (** the correctness gate, also the warm-up: (attempted, failed) *)
  round : unit -> round;
  replay : sink:Telemetry.Sink.t -> (string * float) list * int;
      (** the traced replay: layer metrics (with the verified run's
          report counters) and the host ns of the replayed round's work;
          [sink] is the last traced round's sink *)
}

type t = { name : string; setup : int -> instance }

(* -- shared helpers ------------------------------------------------------- *)

let side = 256
let derive seed i = Hashtbl.hash (seed, i) land 0x3FFFFFFF
let lossless = Jpeg2000.Codestream.Lossless
let lossy = Jpeg2000.Codestream.Lossy

let encode mode seed =
  let data = Models.Workload.codestream ~width:side ~height:side ~seed mode in
  calibration_point ();
  data

let digest image = S.fnv_image S.fnv_basis image
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let parse data =
  match Jpeg2000.Codestream.parse_result data with
  | Ok cs -> cs
  | Error e -> failwith (Jpeg2000.Codestream.error_message e)

let assemble_tiles (h : Jpeg2000.Codestream.header) tiles =
  Jpeg2000.Tile.assemble ~width:h.width ~height:h.height ~components:h.components
    ~bit_depth:h.bit_depth tiles

(* The boxed stage chain of Fig. 1, one tile at a time; with [id] each
   stage is a span of that image. *)
let boxed_tile ?id h seg =
  let stage name f = match id with Some id -> span ~id name f | None -> f () in
  let ed = stage "fig1.entropy" (fun () -> D.entropy_decode_tile h seg) in
  let wd = stage "fig1.iq" (fun () -> D.dequantise h ed) in
  let wd = stage "fig1.idwt" (fun () -> D.inverse_wavelet h wd) in
  stage "fig1.ict_dc" (fun () -> D.inverse_colour_and_shift h seg wd)

let boxed_decode data =
  let cs = parse data in
  assemble_tiles cs.header (List.map (boxed_tile cs.header) cs.tiles)

(* Work the staged path did, for per-unit layer costs. *)
type work = { mutable jobs : int; mutable coded : int; mutable samples : int }

let new_work () = { jobs = 0; coded = 0; samples = 0 }

(* One tile through the staged protocol serve and fleet use, as spans. *)
let staged_tile ~id ~work ?(discard = 0) h seg =
  span ~id "decode" (fun () ->
      let st = span ~id "stage" (fun () -> D.stage_tile ~discard h seg) in
      work.jobs <- work.jobs + D.staged_jobs st;
      work.coded <- work.coded + D.staged_coded_bytes st;
      work.samples <- work.samples + D.staged_samples st;
      let oks =
        span ~id "t1" (fun () -> Array.init (D.staged_jobs st) (D.staged_run st))
      in
      fst (span ~id "finish" (fun () -> D.finish_staged_ok st oks)))

let jpeg2000_layers work ~replay_ns =
  let share name =
    if replay_ns <= 0 then 0.0 else float_of_int (total_ns name) /. float_of_int replay_ns
  in
  [
    ("jpeg2000.t1_jobs", float_of_int work.jobs);
    ("jpeg2000.coded_bytes", float_of_int work.coded);
    ("jpeg2000.t1_ns_per_coded_byte", ns_per "t1" work.coded);
    ("jpeg2000.finish_ns_per_sample", ns_per "finish" work.samples);
    ("jpeg2000.t1_share", share "t1");
    ("jpeg2000.finish_share", share "finish");
  ]

(* T1 jobs of [corpus] on one domain and on two: the pool's speedup on
   the coalesced job array the serving layer builds. *)
let par_speedup corpus =
  let staged =
    Array.concat
      (List.map
         (fun data ->
           let cs = parse data in
           Array.of_list (List.map (D.stage_tile cs.header) cs.tiles))
         (Array.to_list corpus))
  in
  let jobs =
    Array.concat
      (Array.to_list
         (Array.map (fun st -> Array.init (D.staged_jobs st) (fun j -> (st, j))) staged))
  in
  let run pool =
    snd (timed (fun () -> Par.Pool.map pool jobs (fun (st, j) -> D.staged_run st j)))
  in
  let warm_then_run pool =
    ignore (run pool);
    run pool
  in
  warm_then_run Par.Pool.sequential /. Par.Pool.with_jobs 2 warm_then_run

let counter_sum sink ~prefix ~suffix =
  List.fold_left
    (fun acc (name, v) ->
      if String.starts_with ~prefix name && String.ends_with ~suffix name then acc + v
      else acc)
    0
    (Telemetry.Metrics.counters (Telemetry.Sink.metrics sink))

let par_layers sink =
  let count name = float_of_int (counter_sum sink ~prefix:name ~suffix:"") in
  [ ("par.map_jobs", count "par.map.jobs"); ("par.steals", count "par.map.steals") ]

(* -- decode_lossless / decode_lossy --------------------------------------

   Closed loop on one domain: each decode starts when the previous one
   returns. No cache, scheduler or simulator sits in the path, so only
   codec-kernel changes can move these numbers. *)

let corpus_size = 8

let decode_workload name mode =
  let setup seed =
    let seeds = Array.init corpus_size (derive seed) in
    let corpus = Array.map (encode mode) seeds in
    let golden = Array.make corpus_size 0L in
    let verify () =
      let failed = ref 0 in
      Array.iteri
        (fun i data ->
          let image = D.decode data in
          let expected =
            match mode with
            | Jpeg2000.Codestream.Lossless ->
              Jpeg2000.Image.smooth ~width:side ~height:side
                ~components:Models.Profile.components ~seed:seeds.(i)
            | Jpeg2000.Codestream.Lossy -> boxed_decode data
          in
          if not (Jpeg2000.Image.equal image expected) then incr failed;
          golden.(i) <- digest image)
        corpus;
      (corpus_size, !failed)
    in
    let round () =
      let failed = ref 0 in
      Array.iteri
        (fun i data ->
          (match D.decode data with
          | image -> untimed (fun () -> if digest image <> golden.(i) then incr failed)
          | exception _ -> incr failed);
          calibration_point ())
        corpus;
      { ops = corpus_size - !failed; attempted = corpus_size; failed = !failed }
    in
    let replay ~sink =
      let work = new_work () in
      let bytes = ref 0 and out_samples = ref 0 in
      Array.iteri
        (fun id data ->
          span ~id "image" (fun () ->
              let cs = span ~id "parse" (fun () -> parse data) in
              let h = cs.header in
              let tiles = List.map (staged_tile ~id ~work h) cs.tiles in
              let image = span ~id "assemble" (fun () -> assemble_tiles h tiles) in
              bytes := !bytes + String.length data;
              out_samples := !out_samples + (h.width * h.height * h.components);
              if digest image <> golden.(id) then
                failwith (name ^ ": replayed image differs from Decoder.decode"));
          calibration_point ())
        corpus;
      (* Fig. 1 from the boxed stage chain, tile by tile. *)
      Array.iteri
        (fun id data ->
          let cs = parse data in
          span ~id "fig1" (fun () ->
              List.iter (fun seg -> ignore (boxed_tile ~id cs.header seg)) cs.tiles))
        corpus;
      let stages = [ "fig1.entropy"; "fig1.iq"; "fig1.idwt"; "fig1.ict_dc" ] in
      let chain = List.fold_left (fun acc n -> acc + total_ns n) 0 stages in
      let host = List.map (fun n -> ratio (total_ns n) chain) stages in
      let paper =
        let share s = List.assoc s (Models.Profile.shares mode) /. 100.0 in
        Models.Profile.
          [ share Arith_decode; share Iq; share Idwt; share Ict +. share Dc_shift ]
      in
      Printf.printf "  Fig. 1 shares, host boxed chain / paper (%s):"
        (Models.Outcome.mode_string mode);
      List.iter2
        (fun (n, h) p -> Printf.printf " %s %.3f/%.3f" n h p)
        (List.combine [ "entropy"; "iq"; "idwt"; "ict_dc" ] host)
        paper;
      print_newline ();
      let replay_ns = total_ns "image" in
      ( [
          ("jpeg2000.parse_ns_per_byte", ns_per "parse" !bytes);
          ("jpeg2000.assemble_ns_per_sample", ns_per "assemble" !out_samples);
          ("par.speedup_jobs2", par_speedup corpus);
        ]
        @ jpeg2000_layers work ~replay_ns
        @ List.map2 (fun n share -> (n ^ "_share", share)) stages host
        @ par_layers sink,
        replay_ns )
    in
    { verify; round; replay }
  in
  { name; setup }

(* -- serving workloads --------------------------------------------------------

   The images come from the seed, the request traces from a fixed trace
   seed (seed=11 in every spec below): with the trace drawn from the
   seed too, the request mix alone moved requests per second by 6-14 %
   from seed to seed. *)

let serve_corpus ?(streams = 8) seed =
  Array.init streams (fun i ->
      encode (if i < streams / 2 then lossless else lossy) (derive seed i))

(* Per-service request queue: deep enough that no trace burst is
   refused, because a refused request counts as a failed operation. *)
let queue_capacity = 64

let request_spec s =
  match Serve.Request.parse_spec s with Ok spec -> spec | Error e -> failwith e

(* The reference decode of what a served request asked for; full and
   reduced views are shared by every request of one stream. *)
let reference_decoder corpus =
  let memo = Hashtbl.create 16 in
  fun stream (target : Serve.Request.target) ->
    let data = corpus.(stream) in
    match target with
    | Full | Reduced _ -> (
      match Hashtbl.find_opt memo (stream, target) with
      | Some image -> image
      | None ->
        let image =
          match target with
          | Reduced { discard } -> D.decode_reduced ~discard_levels:discard data
          | _ -> D.decode data
        in
        Hashtbl.replace memo (stream, target) image;
        image)
    | Region { rx; ry; rw; rh } -> D.decode_region ~x:rx ~y:ry ~w:rw ~h:rh data

(* Per served request, the virtual time of its queued and request spans
   in the deterministic cost tree of one traced run. *)
let sim_stage_ms sink ~served =
  let prof = Telemetry.Profile.of_events (Telemetry.Sink.events sink) in
  let sum name =
    Telemetry.Profile.fold
      (fun acc _ (node : Telemetry.Profile.node) ->
        if String.equal node.name name then acc + node.total_ps else acc)
      0 prof
  in
  let per ps = if served = 0 then 0.0 else S.ms_of_ps ps /. float_of_int served in
  [ ("serve.sim_queue_ms", per (sum "queued")); ("serve.sim_exec_ms", per (sum "request")) ]

(* A verified serving run: every served image's digest by request id,
   and the report that every timed round must reproduce. *)
type verified = {
  digests : (int, int64) Hashtbl.t;
  mutable fingerprint : string;
}

let new_verified () = { digests = Hashtbl.create 512; fingerprint = "" }

let check_report v ~fingerprint ~total ~refused =
  let failed = if String.equal v.fingerprint fingerprint then refused else total in
  { ops = total - failed; attempted = total; failed }

(* Replays a run's requests in arrival order through the layers' public
   functions. [tile] resolves one cache key (cache, tier or a fresh
   staged decode); [flushes] maps a flushed request to its delivered
   prefix; [before] runs first for each request. Returns the output
   samples and the flushes replayed. *)
let replay_requests ~svc ~arrivals ~flushes ~verified ~tile ~before =
  let out_samples = ref 0 and flush_count = ref 0 in
  Array.iter
    (fun (r : Serve.Request.t) ->
      let id = r.id in
      span ~id "request" (fun () ->
          before r;
          let stream = (S.streams svc).(r.stream) in
          let image =
            match Hashtbl.find_opt flushes id with
            | Some prefix -> (
              incr flush_count;
              span ~id "flush_decode" (fun () ->
                  match D.decode_robust prefix with
                  | Ok (image, _) -> image
                  | Error e -> failwith (Jpeg2000.Codestream.error_message e)))
            | None ->
              let tiles =
                List.map
                  (fun (index, key) -> tile ~id stream index key)
                  (S.needed_keys stream r.target)
              in
              span ~id "assemble" (fun () -> S.assemble stream r.target tiles)
          in
          out_samples :=
            !out_samples
            + Jpeg2000.Image.(width image * height image * components image);
          let d = span ~id "digest" (fun () -> digest image) in
          match Hashtbl.find_opt verified.digests id with
          | Some expected when expected <> d ->
            failwith (Printf.sprintf "replayed request %d differs from the run" id)
          | _ -> ());
      calibration_point ())
    arrivals;
  (!out_samples, !flush_count)

(* The replay's cost per unit for the layers every serving replay has. *)
let serve_replay_layers ~arrivals ~out_samples ~hits ~lookups =
  [
    ("serve.cache_find_ns", ns_per "cache_find" (span_count "cache_find"));
    ("serve.cache_add_ns", ns_per "cache_add" (span_count "cache_add"));
    ("serve.replay_hit_ratio", ratio hits lookups);
    ("serve.assemble_ns_per_sample", ns_per "assemble" out_samples);
    ("serve.digest_ns_per_sample", ns_per "digest" out_samples);
    ("serve.arrivals_us_per_request", ns_per "arrivals" (Array.length arrivals) /. 1e3);
  ]

let serve_workload ?streams name ~cache ~ingest ~spec =
  let ingest_spec =
    Option.map
      (fun s -> match Faults.Ingest.parse_spec s with Ok i -> i | Error e -> failwith e)
      ingest
  in
  let spec = request_spec spec in
  let setup seed =
    let corpus = serve_corpus ?streams seed in
    let config =
      { S.default_config with queue_capacity; cache_capacity = cache; ingest = ingest_spec }
    in
    let svc = S.create ~config corpus in
    let verified = new_verified () and report = ref None in
    let flushes = Hashtbl.create 16 in
    let verify () =
      let reference = reference_decoder corpus in
      let failed = ref 0 in
      let check (r : Serve.Request.t) image expected =
        Hashtbl.replace verified.digests r.id (digest image);
        if not (Jpeg2000.Image.equal image expected) then incr failed
      in
      let rep =
        S.run svc spec
          ~on_complete:(fun r image -> check r image (reference r.stream r.target))
          ~on_flush:(fun r ~prefix image ->
            Hashtbl.replace flushes r.id prefix;
            match D.decode_robust prefix with
            | Ok (expected, _) -> check r image expected
            | Error _ -> incr failed)
      in
      verified.fingerprint <- Telemetry.Json.to_string (S.report_to_json rep);
      report := Some rep;
      (rep.total, !failed + rep.rejected + rep.dropped)
    in
    let round () =
      let rep =
        S.run svc spec
          ~on_complete:(fun _ _ -> calibration_point ())
          ~on_flush:(fun _ ~prefix:_ _ -> calibration_point ())
      in
      untimed (fun () ->
          check_report verified
            ~fingerprint:(Telemetry.Json.to_string (S.report_to_json rep))
            ~total:rep.total ~refused:(rep.rejected + rep.dropped))
    in
    let replay ~sink =
      let rep = Option.get !report in
      let arrivals = span "arrivals" (fun () -> S.open_arrivals svc spec) in
      let lru = Serve.Cache.create ~capacity:cache in
      let work = new_work () in
      let hits = ref 0 and lookups = ref 0 in
      let tile ~id stream index (key : Serve.Cache.key) =
        incr lookups;
        match span ~id "cache_find" (fun () -> Serve.Cache.find lru key) with
        | Some t ->
          incr hits;
          t
        | None ->
          let t =
            staged_tile ~id ~work ~discard:key.discard (S.stream_header stream)
              (S.stream_tile stream index)
          in
          span ~id "cache_add" (fun () -> Serve.Cache.add lru key t);
          t
      in
      (* The service seeds each request's delivery with a hash of the
         trace seed and the request id. *)
      let before (r : Serve.Request.t) =
        Option.iter
          (fun ing ->
            let seed =
              Int64.to_int
                (Int64.logand
                   (Faults.Rng.hash64 (Int64.of_int spec.seed) (Int64.of_int r.id))
                   Int64.max_int)
            in
            span ~id:r.id "ingest_analyse" (fun () ->
                ignore
                  (Serve.Ingest.analyse ~seed ing ~start_ps:r.arrival_ps
                     corpus.(r.stream))))
          ingest_spec
      in
      let out_samples, flush_count =
        replay_requests ~svc ~arrivals ~flushes ~verified ~tile ~before
      in
      let replay_ns = total_ns "arrivals" + total_ns "request" in
      let ingest_count f = float_of_int (match rep.ingest with Some i -> f i | None -> 0) in
      ( serve_replay_layers ~arrivals ~out_samples ~hits:!hits ~lookups:!lookups
        @ [
            ( "serve.ingest_analyse_us_per_request",
              ns_per "ingest_analyse" (Array.length arrivals) /. 1e3 );
            ("serve.flush_decode_ms_per_flush", ns_per "flush_decode" flush_count /. 1e6);
            ("par.speedup_jobs2", par_speedup corpus);
            ("serve.cache_hit_ratio", rep.cache_hit_rate);
            ("serve.cache_evictions", float_of_int rep.cache_evictions);
            ("serve.batches", float_of_int rep.batches);
            ("serve.coalesced", float_of_int rep.coalesced);
            ("serve.batch_requests_mean", ratio rep.served rep.batches);
            ("serve.flushed", ingest_count (fun i -> i.ing_flushed));
            ("serve.chunks_lost", ingest_count (fun i -> i.ing_chunks_lost));
            ("serve.sim_p99_ms", rep.latency.p99_ms);
            ("serve.sim_slo_miss_rate", rep.slo_miss_rate);
          ]
        @ jpeg2000_layers work ~replay_ns
        @ sim_stage_ms sink ~served:rep.served
        @ par_layers sink,
        replay_ns )
    in
    { verify; round; replay }
  in
  { name; setup }

(* -- fleet_l2 ------------------------------------------------------------------ *)

let fleet_workload name =
  let config =
    match Fleet.parse_config "replicas=4,l2=1024" with Ok c -> c | Error e -> failwith e
  in
  let l1 = 8 in
  let spec = request_spec "open:n=256,rate=1200,seed=11,deadline=50" in
  let setup seed =
    let corpus = serve_corpus seed in
    let fleet =
      Fleet.create ~config
        ~service:{ S.default_config with queue_capacity; cache_capacity = l1 }
        corpus
    in
    let svc = Fleet.service fleet in
    let verified = new_verified () and report = ref None in
    let verify () =
      let reference = reference_decoder corpus in
      let failed = ref 0 in
      let rep =
        Fleet.run fleet spec ~on_complete:(fun _ (r : Serve.Request.t) image ->
            Hashtbl.replace verified.digests r.id (digest image);
            if not (Jpeg2000.Image.equal image (reference r.stream r.target)) then
              incr failed)
      in
      verified.fingerprint <- Telemetry.Json.to_string (Fleet.report_to_json rep);
      report := Some rep;
      (rep.total, !failed + rep.rejected + rep.dropped)
    in
    let round () =
      let rep = Fleet.run fleet spec ~on_complete:(fun _ _ _ -> calibration_point ()) in
      untimed (fun () ->
          check_report verified
            ~fingerprint:(Telemetry.Json.to_string (Fleet.report_to_json rep))
            ~total:rep.total ~refused:(rep.rejected + rep.dropped))
    in
    let replay ~sink =
      let rep = Option.get !report in
      let arrivals = span "arrivals" (fun () -> S.open_arrivals svc spec) in
      let ring =
        Fleet.Ring.create ~vnodes:config.vnodes (List.init config.replicas Fun.id)
      in
      let l1s = Array.init config.replicas (fun _ -> Serve.Cache.create ~capacity:l1) in
      let tier =
        Fleet.Tier.create ~capacity:config.l2_capacity ~transfer_ps:config.l2_transfer_ps ()
      in
      let work = new_work () in
      let hits = ref 0 and lookups = ref 0 and owner = ref 0 in
      let before (r : Serve.Request.t) =
        let digest = S.stream_digest (S.streams svc).(r.stream) in
        owner :=
          Option.get (span ~id:r.id "ring_owner" (fun () -> Fleet.Ring.owner ring digest))
      in
      let tile ~id stream index (key : Serve.Cache.key) =
        incr lookups;
        let l1 = l1s.(!owner) in
        match span ~id "cache_find" (fun () -> Serve.Cache.find l1 key) with
        | Some t ->
          incr hits;
          t
        | None ->
          let t =
            match span ~id "tier_find" (fun () -> Fleet.Tier.find tier key) with
            | Some t ->
              incr hits;
              t
            | None ->
              let t =
                staged_tile ~id ~work ~discard:key.discard (S.stream_header stream)
                  (S.stream_tile stream index)
              in
              span ~id "tier_add" (fun () -> Fleet.Tier.add tier key t);
              t
          in
          span ~id "cache_add" (fun () -> Serve.Cache.add l1 key t);
          t
      in
      let out_samples, _ =
        replay_requests ~svc ~arrivals ~flushes:(Hashtbl.create 1) ~verified ~tile ~before
      in
      let replay_ns = total_ns "arrivals" + total_ns "request" in
      let busy = List.map (fun (r : Fleet.replica_stat) -> r.rs_busy_ms) rep.per_replica in
      let mean_busy = List.fold_left ( +. ) 0.0 busy /. float_of_int (List.length busy) in
      let l2 f = match rep.l2 with Some l -> f l | None -> 0.0 in
      ( serve_replay_layers ~arrivals ~out_samples ~hits:!hits ~lookups:!lookups
        @ [
            ("fleet.ring_owner_ns", ns_per "ring_owner" (span_count "ring_owner"));
            ("fleet.tier_find_ns", ns_per "tier_find" (span_count "tier_find"));
            ("par.speedup_jobs2", par_speedup corpus);
            ("fleet.l1_hit_ratio", rep.l1.hit_rate);
            ("fleet.l2_hit_ratio", l2 (fun l -> l.l2_tier.hit_rate));
            ("fleet.l2_evictions", l2 (fun l -> float_of_int l.l2_tier.evictions));
            ("fleet.l2_transfers", l2 (fun l -> float_of_int l.l2_transfers));
            ("fleet.spilled", float_of_int rep.spilled);
            ("fleet.busy_imbalance", List.fold_left Float.max 0.0 busy /. mean_busy);
            ("serve.batches", float_of_int rep.batches);
            ("serve.coalesced", float_of_int rep.coalesced);
            ("serve.batch_requests_mean", ratio rep.served rep.batches);
            ("serve.sim_p99_ms", rep.latency.p99_ms);
            ("serve.sim_slo_miss_rate", rep.slo_miss_rate);
          ]
        @ jpeg2000_layers work ~replay_ns
        @ sim_stage_ms sink ~served:rep.served
        @ par_layers sink,
        replay_ns )
    in
    { verify; round; replay }
  in
  { name; setup }

(* -- paper_tables ---------------------------------------------------------------

   Regenerates the paper's artefacts: the 18 Table 1 runs (nine model
   versions, two modes), Figure 1 and the Table 2 synthesis rows. The
   only workload on sim, osss, models and the FOSSY/rtl/analysis flow;
   its inputs are fixed by the paper, so the seed does not change them. *)

let paper_workload name =
  let runs =
    List.concat_map
      (fun mode -> List.map (fun v -> (v, mode)) Models.Experiment.all_versions)
      [ lossless; lossy ]
  in
  let key (v, mode) =
    Models.Experiment.version_name v ^ "/" ^ Models.Outcome.mode_string mode
  in
  let cores =
    [
      ("idwt53", Models.Idwt_cores.idwt53_systemc);
      ("idwt97", Models.Idwt_cores.idwt97_systemc);
    ]
  in
  (* The modelled timing of an outcome, exact to the bit. *)
  let timing (o : Models.Outcome.t) =
    Printf.sprintf "%s %h %h %d" o.version o.decode_ms o.idwt_ms o.idwt_calls
  in
  let artefacts =
    List.map
      (fun ((v, mode) as run) ->
        (key run, fun () -> timing (Models.Experiment.run ~payload:false v mode)))
      runs
    @ [
        ("figure1", fun () -> Models.Tables.figure1 ~payload:false ());
        ( "table2",
          fun () ->
            String.concat ";"
              (List.map
                 (fun (r : Models.Tables.table2_row) ->
                   Printf.sprintf "%s %d %d %h" r.core r.fossy_area.luts
                     r.fossy_area.flip_flops r.fossy_mhz)
                 (Models.Tables.table2_rows ())) );
      ]
  in
  let setup _seed =
    Analysis.Lint.install ();
    (* One payload workload per Table 1 run: the encoded case-study
       image and its reference decode, consumed by the gate. *)
    let payloads =
      List.map
        (fun (_, mode) ->
          let w = Models.Workload.make mode in
          calibration_point ();
          w)
        runs
    in
    let expected = Hashtbl.create 32 in
    let verify () =
      let outcomes =
        List.map2 (fun (v, _) w -> Models.Experiment.run_workload v w) runs payloads
      in
      let bad =
        List.filter (fun (o : Models.Outcome.t) -> o.functional_ok <> Some true) outcomes
      in
      let ll, ly =
        List.partition (fun (o : Models.Outcome.t) -> o.mode = lossless) outcomes
      in
      let relations = Models.Experiment.paper_relations ll ly in
      let broken = List.filter (fun c -> not c.Models.Experiment.holds) relations in
      (* The timed regeneration runs without payload: its timing must
         equal the payload-verified timing, and every round must
         reproduce this first regeneration. *)
      List.iter (fun (k, artefact) -> Hashtbl.replace expected k (artefact ())) artefacts;
      let drift =
        List.filter
          (fun (run, o) -> Hashtbl.find expected (key run) <> timing o)
          (List.combine runs outcomes)
      in
      ( List.length outcomes + List.length relations,
        List.length bad + List.length broken + List.length drift )
    in
    (* One regeneration of every artefact. *)
    let round () =
      let same = ref true in
      List.iter
        (fun (k, artefact) ->
          (match artefact () with
          | v -> untimed (fun () -> if v <> Hashtbl.find expected k then same := false)
          | exception _ -> same := false);
          calibration_point ())
        artefacts;
      let failed = if !same then 0 else 1 in
      { ops = 1 - failed; attempted = 1; failed }
    in
    let replay ~sink:_ =
      let span_name v = "v" ^ Models.Experiment.version_name v in
      List.iteri
        (fun id (v, mode) ->
          span ~id (span_name v) (fun () ->
              ignore (Models.Experiment.run ~payload:false v mode));
          calibration_point ())
        runs;
      List.iter
        (fun (core, hir) ->
          ignore (span ("synthesise." ^ core) (fun () -> Fossy.Synthesis.synthesise hir));
          ignore (span "optimise" (fun () -> Fossy.Synthesis.optimise hir)))
        cores;
      (* Event counts of the same runs, from a sink outside the timed
         replay. *)
      let counts, () =
        Telemetry.Sink.with_sink (fun () ->
            List.iter
              (fun (v, mode) -> ignore (Models.Experiment.run ~payload:false v mode))
              runs)
      in
      let count prefix suffix = float_of_int (counter_sum counts ~prefix ~suffix) in
      let ns names = List.fold_left (fun acc n -> acc + total_ns n) 0 names in
      let ms names = float_of_int (ns names) /. 1e6 in
      let app = List.map span_name Models.Experiment.[ V1; V2; V3; V4; V5 ] in
      let vta = List.map span_name Models.Experiment.[ V6a; V6b; V7a; V7b ] in
      let synth = List.map (fun (c, _) -> "synthesise." ^ c) cores in
      let wakeups = count "process." ".wakeups" in
      ( [
          ("models.table1_ms", ms (app @ vta));
          ("models.app_layer_ms", ms app);
          ("models.vta_layer_ms", ms vta);
          ("sim.wakeups", wakeups);
          ( "sim.ns_per_wakeup",
            if wakeups = 0.0 then 0.0 else float_of_int (ns (app @ vta)) /. wakeups );
          ("osss.bus_transactions", count "bus." ".transactions");
          ("osss.bus_words", count "bus." ".words");
          ("osss.channel_frames", count "channel." ".frames");
          ("fossy.synth_ms.idwt53", ms [ "synthesise.idwt53" ]);
          ("fossy.synth_ms.idwt97", ms [ "synthesise.idwt97" ]);
          ("fossy.optimise_ms", ms [ "optimise" ] /. float_of_int (List.length cores));
        ],
        ns (app @ vta @ synth @ [ "optimise" ]) )
    in
    { verify; round; replay }
  in
  { name; setup }

let all =
  [
    decode_workload "decode_lossless" lossless;
    decode_workload "decode_lossy" lossy;
    serve_workload "serve_hot" ~cache:4096 ~ingest:None
      ~spec:"open:n=512,rate=500,seed=11,deadline=50,region=0.25,reduced=0.25";
    serve_workload "serve_churn" ~streams:16 ~cache:64
      ~ingest:(Some "chunk=1024,loss=0,stall=0.05,stall_us=20000")
      ~spec:"open:n=64,rate=200,seed=11,deadline=100";
    fleet_workload "fleet_l2";
    paper_workload "paper_tables";
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all
