(* Integration tests for the nine decoder system models: functional
   correctness of every version, Table 1 orderings, Figure 1 shares,
   and the Table 2 synthesis comparison. These are the repository's
   end-to-end checks: a change that breaks a paper relation fails
   here. *)

let lossless = Jpeg2000.Codestream.Lossless
let lossy = Jpeg2000.Codestream.Lossy

(* Timing-only runs are cheap; cache them per mode. *)
let results_timing =
  let cache = Hashtbl.create 2 in
  fun mode ->
    match Hashtbl.find_opt cache mode with
    | Some r -> r
    | None ->
      let r = Models.Experiment.run_all ~payload:false mode in
      Hashtbl.add cache mode r;
      r

let get mode version =
  List.find
    (fun r ->
      String.equal r.Models.Outcome.version
        (Models.Experiment.version_name version))
    (results_timing mode)

(* -- profile -------------------------------------------------------- *)

let test_profile_shares_sum_to_100 () =
  List.iter
    (fun mode ->
      let total =
        List.fold_left (fun acc (_, p) -> acc +. p) 0.0 (Models.Profile.shares mode)
      in
      Alcotest.(check (float 0.2)) "shares sum" 100.0 total)
    [ lossless; lossy ]

let test_profile_decode_spread_balanced () =
  List.iter
    (fun mode ->
      let times =
        List.init Models.Profile.tiles (fun i ->
            Models.Profile.sw_decode_time mode ~tile:i)
      in
      let total = List.fold_left Sim.Sim_time.add Sim.Sim_time.zero times in
      let expected =
        Sim.Sim_time.mul_int (Models.Profile.sw mode).Models.Profile.t_decode
          Models.Profile.tiles
      in
      (* Mean preserved to rounding. *)
      let diff =
        abs (Sim.Sim_time.to_ps total - Sim.Sim_time.to_ps expected)
      in
      Alcotest.(check bool) "total preserved" true (diff < 1_000_000);
      (* Each aligned 4-tile stripe carries the same load. *)
      let stripe k =
        List.fold_left
          (fun acc i ->
            acc + Sim.Sim_time.to_ps (Models.Profile.sw_decode_time mode ~tile:(4 * k + i)))
          0 [ 0; 1; 2; 3 ]
      in
      let s0 = stripe 0 in
      for k = 1 to 3 do
        Alcotest.(check bool) "stripes balanced" true (abs (stripe k - s0) < 1_000_000)
      done)
    [ lossless; lossy ]

let test_profile_decode_mean_is_180ms () =
  Alcotest.(check (float 0.01)) "180 ms" 180.0
    (Sim.Sim_time.to_float_ms (Models.Profile.sw lossless).Models.Profile.t_decode)

(* -- meter ----------------------------------------------------------- *)

let test_meter_union () =
  let k = Sim.Kernel.create () in
  let m = Models.Meter.create k in
  Sim.Kernel.spawn k (fun () ->
      Models.Meter.measure m (fun () -> Sim.Kernel.wait_for (Sim.Sim_time.ms 4)));
  Sim.Kernel.spawn k (fun () ->
      Sim.Kernel.wait_for (Sim.Sim_time.ms 2);
      Models.Meter.measure m (fun () -> Sim.Kernel.wait_for (Sim.Sim_time.ms 4)));
  Sim.Kernel.spawn k (fun () ->
      Sim.Kernel.wait_for (Sim.Sim_time.ms 10);
      Models.Meter.measure m (fun () -> Sim.Kernel.wait_for (Sim.Sim_time.ms 1)));
  Sim.Kernel.run k;
  (* [0,4] U [2,6] U [10,11] = 7 ms; sum = 9 ms. *)
  Alcotest.(check (float 1e-6)) "union" 7.0 (Models.Meter.busy_ms m);
  Alcotest.(check (float 1e-6)) "sum" 9.0
    (Sim.Sim_time.to_float_ms (Models.Meter.sum m));
  Alcotest.(check int) "count" 3 (Models.Meter.count m)

let test_meter_nested_and_adjacent () =
  let k = Sim.Kernel.create () in
  let m = Models.Meter.create k in
  Sim.Kernel.spawn k (fun () ->
      (* Nested: [0,6] containing [2,3]. *)
      Models.Meter.measure m (fun () ->
          Sim.Kernel.wait_for (Sim.Sim_time.ms 2);
          Models.Meter.measure m (fun () ->
              Sim.Kernel.wait_for (Sim.Sim_time.ms 1));
          Sim.Kernel.wait_for (Sim.Sim_time.ms 3)));
  Sim.Kernel.spawn k (fun () ->
      (* Adjacent: [6,8] then [8,9] — touching intervals merge. *)
      Sim.Kernel.wait_for (Sim.Sim_time.ms 6);
      Models.Meter.measure m (fun () -> Sim.Kernel.wait_for (Sim.Sim_time.ms 2));
      Models.Meter.measure m (fun () -> Sim.Kernel.wait_for (Sim.Sim_time.ms 1)));
  Sim.Kernel.run k;
  (* [0,6] U [2,3] U [6,8] U [8,9] = [0,9]: nesting adds nothing,
     adjacency leaves no gap. *)
  Alcotest.(check (float 1e-6)) "union" 9.0 (Models.Meter.busy_ms m);
  Alcotest.(check (float 1e-6)) "sum counts nesting twice" 10.0
    (Sim.Sim_time.to_float_ms (Models.Meter.sum m));
  Alcotest.(check int) "count" 4 (Models.Meter.count m)

let test_meter_zero_width () =
  let k = Sim.Kernel.create () in
  let m = Models.Meter.create k in
  Sim.Kernel.spawn k (fun () ->
      (* An interval of zero simulated width contributes count but no
         busy time. *)
      Models.Meter.measure m (fun () -> ());
      Sim.Kernel.wait_for (Sim.Sim_time.ms 1);
      Models.Meter.measure m (fun () -> Sim.Kernel.wait_for (Sim.Sim_time.ms 2)));
  Sim.Kernel.run k;
  Alcotest.(check (float 1e-6)) "union ignores empty interval" 2.0
    (Models.Meter.busy_ms m);
  Alcotest.(check int) "count includes empty interval" 2
    (Models.Meter.count m)

(* -- functional correctness of every version ------------------------- *)

let test_all_versions_decode_correctly () =
  List.iter
    (fun mode ->
      List.iter
        (fun version ->
          let r = Models.Experiment.run ~payload:true version mode in
          match r.Models.Outcome.functional_ok with
          | Some true -> ()
          | Some false ->
            Alcotest.failf "version %s (%s): wrong image"
              r.Models.Outcome.version
              (Format.asprintf "%a" Jpeg2000.Codestream.pp_mode mode)
          | None -> Alcotest.failf "version %s: payload missing" r.Models.Outcome.version)
        Models.Experiment.all_versions)
    [ lossless; lossy ]

let test_workload_rejects_out_of_order_stages () =
  let w = Models.Workload.make ~payload:true lossless in
  Alcotest.(check bool) "IQ before decode rejected" true
    (try
       Models.Workload.stage_iq w 0;
       false
     with Failure _ -> true)

let test_payload_does_not_change_timing () =
  let with_payload = Models.Experiment.run ~payload:true Models.Experiment.V3 lossless in
  let without = Models.Experiment.run ~payload:false Models.Experiment.V3 lossless in
  Alcotest.(check (float 1e-9)) "same simulated decode time"
    without.Models.Outcome.decode_ms with_payload.Models.Outcome.decode_ms;
  Alcotest.(check (float 1e-9)) "same simulated IDWT time"
    without.Models.Outcome.idwt_ms with_payload.Models.Outcome.idwt_ms

(* -- Table 1 orderings (the paper's quantitative story) -------------- *)

let test_paper_relations_hold () =
  let checks =
    Models.Experiment.paper_relations (results_timing lossless) (results_timing lossy)
  in
  List.iter
    (fun c ->
      if not c.Models.Experiment.holds then
        Alcotest.failf "relation failed: %s (%s)" c.Models.Experiment.relation
          c.Models.Experiment.detail)
    checks;
  Alcotest.(check int) "all ten relations evaluated" 10 (List.length checks)

let test_v1_absolute_times () =
  (* 16 tiles x 202.7 ms (lossless) and 229.0 ms (lossy). *)
  let r_ll = get lossless Models.Experiment.V1 in
  let r_ly = get lossy Models.Experiment.V1 in
  Alcotest.(check (float 1.0)) "lossless total" 3243.2 r_ll.Models.Outcome.decode_ms;
  Alcotest.(check (float 1.0)) "lossy total" 3664.1 r_ly.Models.Outcome.decode_ms;
  Alcotest.(check (float 0.5)) "lossless IDWT" 178.4 r_ll.Models.Outcome.idwt_ms;
  Alcotest.(check (float 0.5)) "lossy IDWT" 454.4 r_ly.Models.Outcome.idwt_ms

let test_idwt_call_counts () =
  (* One metered IDWT interval per tile in every model. *)
  List.iter
    (fun version ->
      let r = get lossless version in
      Alcotest.(check int)
        (Printf.sprintf "v%s intervals" r.Models.Outcome.version)
        Models.Profile.tiles r.Models.Outcome.idwt_calls)
    Models.Experiment.all_versions

let test_vta_decode_slower_than_app () =
  List.iter
    (fun mode ->
      let v3 = get mode Models.Experiment.V3 in
      let v6a = get mode Models.Experiment.V6a in
      let v6b = get mode Models.Experiment.V6b in
      Alcotest.(check bool) "6a above 3" true
        (v6a.Models.Outcome.decode_ms > v3.Models.Outcome.decode_ms);
      Alcotest.(check bool) "6b between" true
        (v6b.Models.Outcome.decode_ms > v3.Models.Outcome.decode_ms
        && v6b.Models.Outcome.decode_ms <= v6a.Models.Outcome.decode_ms))
    [ lossless; lossy ]

let test_determinism () =
  let a = Models.Experiment.run ~payload:false Models.Experiment.V7a lossy in
  let b = Models.Experiment.run ~payload:false Models.Experiment.V7a lossy in
  Alcotest.(check (float 0.0)) "identical decode time"
    a.Models.Outcome.decode_ms b.Models.Outcome.decode_ms;
  Alcotest.(check (float 0.0)) "identical IDWT time" a.Models.Outcome.idwt_ms
    b.Models.Outcome.idwt_ms

(* -- Figure 1 --------------------------------------------------------- *)

let test_figure1_shares_match () =
  let text = Models.Tables.figure1 ~payload:false () in
  (* The measured column must reproduce the paper column for the
     dominant stage in both modes. *)
  Alcotest.(check bool) "88.8% present" true (Str_util.contains text "88.8%");
  Alcotest.(check bool) "78.6% present" true (Str_util.contains text "78.6%");
  Alcotest.(check bool) "12.4% present" true (Str_util.contains text "12.4%")

(* -- Table 2 ----------------------------------------------------------- *)

let table2 = lazy (Models.Tables.table2_rows ())

let find_core name =
  List.find (fun r -> Str_util.contains r.Models.Tables.core name) (Lazy.force table2)

let test_table2_idwt53_shape () =
  let r = find_core "IDWT53" in
  let ratio =
    float_of_int r.Models.Tables.fossy_area.Rtl.Area.slices
    /. float_of_int r.Models.Tables.ref_area.Rtl.Area.slices
  in
  Alcotest.(check bool)
    (Printf.sprintf "FOSSY ~10%% bigger (got %+.1f%%)" ((ratio -. 1.) *. 100.))
    true
    (ratio > 1.0 && ratio < 1.2);
  let freq_ratio = r.Models.Tables.fossy_mhz /. r.Models.Tables.ref_mhz in
  Alcotest.(check bool) "frequencies similar" true
    (freq_ratio > 0.85 && freq_ratio < 1.15);
  Alcotest.(check bool) "both meet 100 MHz" true
    (r.Models.Tables.fossy_mhz >= 100.0 && r.Models.Tables.ref_mhz >= 100.0)

let test_table2_idwt97_shape () =
  let r = find_core "IDWT97" in
  let ratio =
    float_of_int r.Models.Tables.fossy_area.Rtl.Area.slices
    /. float_of_int r.Models.Tables.ref_area.Rtl.Area.slices
  in
  Alcotest.(check bool)
    (Printf.sprintf "FOSSY ~15%% smaller (got %+.1f%%)" ((ratio -. 1.) *. 100.))
    true
    (ratio > 0.78 && ratio < 0.92);
  let freq_ratio = r.Models.Tables.fossy_mhz /. r.Models.Tables.ref_mhz in
  Alcotest.(check bool)
    (Printf.sprintf "FOSSY ~28%% slower (got %+.1f%%)" ((freq_ratio -. 1.) *. 100.))
    true
    (freq_ratio > 0.65 && freq_ratio < 0.8);
  Alcotest.(check bool) "both meet 100 MHz" true
    (r.Models.Tables.fossy_mhz >= 100.0 && r.Models.Tables.ref_mhz >= 100.0)

let test_table2_loc_relations () =
  List.iter
    (fun r ->
      Alcotest.(check bool) "generated VHDL several times the SystemC" true
        (r.Models.Tables.fossy_vhdl_loc > 3 * r.Models.Tables.systemc_loc);
      Alcotest.(check bool) "reference VHDL close to SystemC size" true
        (r.Models.Tables.ref_vhdl_loc < 2 * r.Models.Tables.systemc_loc);
      Alcotest.(check bool) "97 core bigger than 53 core" true
        ((find_core "IDWT97").Models.Tables.systemc_loc
        > (find_core "IDWT53").Models.Tables.systemc_loc))
    (Lazy.force table2)

let test_table2_is_the_flows () =
  (* The digest of [fossy_cli table2]: every process prints one
     Table 2, whatever it ran before. *)
  Alcotest.(check string) "Table 2 digest" "84ac37f6b72ca16a96fe3b8069b37dba"
    (Digest.to_hex (Digest.string (Models.Tables.table2 ())));
  let r = find_core "IDWT97" in
  let opt = r.Models.Tables.fossy_area
  and unopt = r.Models.Tables.fossy_unopt_area in
  Alcotest.(check bool) "value analysis saves FFs" true
    (opt.Rtl.Area.flip_flops < unopt.Rtl.Area.flip_flops);
  Alcotest.(check bool) "value analysis saves LUTs" true
    (opt.Rtl.Area.luts < unopt.Rtl.Area.luts)

(* MD5s of what [osss_sim trace --version V --mode M --no-payload]
   writes for the four VTA versions in both modes: the Chrome trace,
   and the [--metrics] JSON without the [process.*.wakeups] counters.
   Those count host-side resumes, which a scheduler change may remove;
   every span, instant, counter, gauge and distribution of the model
   itself must stay byte-identical. The lossy digests were recorded
   with the broadcast lock and the suspend-every-wait kernel, the
   lossless ones with one lock grant per bus burst. *)
let pinned_vta_traces =
  [
    ("6a", lossless, "be24af1cd3bc1207ec73d83bb53e6711", "788a2aa1ee5564827d16e9c8d934e88f");
    ("6b", lossless, "549d99aa32e20fd25f6479e41f704242", "c14da5e80a7fd77e4167a7b29dde56cd");
    ("7a", lossless, "00a4f8d40dd42ac7cbb3d0b635571a98", "1008ea9a8afc312b92bca559e2a69ab0");
    ("7b", lossless, "fb76ae2d0aecfc55b7836f39e75b9876", "6238e8581584d7607170fcba9a5c711c");
    ("6a", lossy, "ebc1cbc6267b40db8a28705456329c07", "461d3627a616d35f737bbbc197ea2c65");
    ("6b", lossy, "9c45e58e3a4b7ab0a62f8db04e4a2b11", "7ad778d4fecd8b1e49e530eb97a557e5");
    ("7a", lossy, "ae1c0d88575a3eb8e52c822e60fa269e", "732783f9f3b8da84f39c7c217d0e58ad");
    ("7b", lossy, "e01d3c586ea3acdec07b7d077eaa71ed", "85404ed8ba93806ec80fc8ed572d09c4");
  ]

let rec drop_wakeup_counters (json : Telemetry.Json.t) : Telemetry.Json.t =
  match json with
  | Obj fields ->
    Obj
      (List.filter_map
         (fun (key, value) ->
           if
             String.starts_with ~prefix:"process." key
             && String.ends_with ~suffix:".wakeups" key
           then None
           else Some (key, drop_wakeup_counters value))
         fields)
  | List items -> List (List.map drop_wakeup_counters items)
  | other -> other

let test_vta_traces_pinned () =
  let md5 s = Digest.to_hex (Digest.string s) in
  let digests =
    List.map
      (fun (name, mode, _, _) ->
        let version = Option.get (Models.Experiment.version_of_name name) in
        let sink, outcome =
          Telemetry.Sink.with_sink (fun () ->
              Models.Experiment.run ~payload:false version mode)
        in
        ( name,
          mode,
          md5 (Telemetry.Chrome.to_string (Telemetry.Sink.events sink)),
          md5
            (Telemetry.Json.to_string
               (drop_wakeup_counters (Models.Outcome.to_json outcome))) ))
      pinned_vta_traces
  in
  let show (name, mode, trace, metrics) =
    Printf.sprintf "%s %s %s %s" name (Models.Outcome.mode_string mode) trace metrics
  in
  Alcotest.(check (list string))
    "trace and metrics digests"
    (List.map show pinned_vta_traces)
    (List.map show digests)

(* The exact untraced timing of the 18 Table 1 runs: every decode and
   IDWT time as a hexadecimal float, and the IDWT call count. Without
   a sink the bus takes the most idle bursts in one kernel step, so
   this is the path the traced digests above do not cover.
   test_experiments checks the same numbers only to 0.1 ms. *)
let test_table1_timing_pinned () =
  let lossless, lossy = Models.Tables.table1_results ~payload:false () in
  let b = Buffer.create 1024 in
  List.iter
    (fun (r : Models.Outcome.t) ->
      Printf.bprintf b "%s %s %h %h %d\n" r.version
        (Models.Outcome.mode_string r.mode)
        r.decode_ms r.idwt_ms r.idwt_calls)
    (lossless @ lossy);
  Alcotest.(check string)
    "Table 1 timing digest" "53c70b7615813cfc5354cbe1e2c09402"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* The eight payload-free VTA runs, once. *)
let vta_run_set () =
  List.iter
    (fun mode ->
      List.iter
        (fun version ->
          ignore (Models.Experiment.run ~payload:false version mode : Models.Outcome.t))
        Models.Experiment.[ V6a; V6b; V7a; V7b ])
    [ lossless; lossy ]

(* One warm-up set, shared by the cases that measure a set. *)
let vta_warm_up = lazy (vta_run_set ())

(* What the word count [words] reads grows by over one set, after the
   warm-up set. *)
let vta_set_words words =
  Lazy.force vta_warm_up;
  let before = words () in
  vta_run_set ();
  words () -. before

(* The block RAM the VTA models insert is a timing model: a run asks it
   only for [Memory.access_time] and allocates no word storage for it.
   The eight payload-free VTA runs together must allocate no more
   major-heap words than one block RAM's 2^16 words of storage would
   take. *)
let test_vta_runs_allocate_no_block_ram () =
  let words = vta_set_words (fun () -> (Gc.quick_stat ()).Gc.major_words) in
  if words > 65536. then
    Alcotest.failf "the eight VTA runs allocated %.0f major-heap words (at most 65536)"
      words

(* A run of identical OPB arbiter rotations is planned once and taken
   in one step, so a set of the eight VTA runs plans 925 rotations.
   Planning each of its 68 070 rotations apart allocates about 2.9 M
   minor words a set; taken in runs, a set allocates about 0.44 M.
   [Gc.minor_words] counts to the word; [Gc.quick_stat]'s count moves
   only at minor collections. *)
let test_vta_runs_take_rotations_in_runs () =
  let words = vta_set_words Gc.minor_words in
  if words > 1e6 then
    Alcotest.failf "the eight VTA runs allocated %.0f minor words (at most 1000000)" words

let test_idwt_cores_validate () =
  List.iter
    (fun m ->
      match Fossy.Hir.validate m with
      | Ok () -> ()
      | Error es ->
        Alcotest.failf "%s: %s" m.Fossy.Hir.m_name (String.concat "; " es))
    [ Models.Idwt_cores.idwt53_systemc; Models.Idwt_cores.idwt97_systemc ]

(* -- VTA mapping ------------------------------------------------------- *)

let test_vta_mapping_valid () =
  List.iter
    (fun (sw_tasks, idwt_p2p) ->
      let vta = Models.Vta_models.mapping ~sw_tasks ~idwt_p2p in
      match Osss.Vta.validate vta with
      | Ok () -> ()
      | Error es -> Alcotest.failf "invalid: %s" (String.concat "; " es))
    [ (1, false); (1, true); (4, false); (4, true) ]

let test_vta_mapping_processors () =
  let vta = Models.Vta_models.mapping ~sw_tasks:4 ~idwt_p2p:false in
  Alcotest.(check int) "four processors" 4 (List.length (Osss.Vta.processors vta))

let test_vta_mapping_names_simulated_channels () =
  (* The registry FOSSY generates the platform from must name the
     channels the simulated rig moves words over. *)
  List.iter
    (fun (version, sw_tasks, idwt_p2p) ->
      let sink, _ =
        Telemetry.Sink.with_sink (fun () ->
            Models.Experiment.run ~payload:false version lossless)
      in
      let simulated =
        List.filter_map
          (fun (key, _) ->
            match String.split_on_char '.' key with
            | [ "channel"; name; "words" ] -> Some name
            | _ -> None)
          (Telemetry.Metrics.counters (Telemetry.Sink.metrics sink))
      in
      let registry =
        Models.Vta_models.mapping ~sw_tasks ~idwt_p2p
        |> Osss.Vta.channels |> List.map fst |> List.sort String.compare
      in
      Alcotest.(check (list string))
        (Models.Experiment.version_name version)
        simulated registry)
    Models.Experiment.
      [ (V6a, 1, false); (V6b, 1, true); (V7a, 4, false); (V7b, 4, true) ]

let test_version_names () =
  List.iter
    (fun v ->
      Alcotest.(check bool) "name round-trips" true
        (Models.Experiment.version_of_name (Models.Experiment.version_name v)
        = Some v))
    Models.Experiment.all_versions;
  Alcotest.(check bool) "unknown rejected" true
    (Models.Experiment.version_of_name "9z" = None)

let test_outcome_helpers () =
  let base =
    { Models.Outcome.version = "1"; mode = lossless; decode_ms = 100.0;
      idwt_ms = 20.0; idwt_calls = 16; functional_ok = None;
      resilience = Models.Outcome.clean;
      telemetry = Telemetry.Report.empty }
  in
  let faster = { base with Models.Outcome.version = "2"; decode_ms = 50.0; idwt_ms = 5.0 } in
  Alcotest.(check (float 1e-9)) "speedup" 2.0 (Models.Outcome.speedup_vs base faster);
  Alcotest.(check (float 1e-9)) "idwt speedup" 4.0
    (Models.Outcome.idwt_speedup_vs base faster)

let test_resilience_clean_and_misses () =
  let run ?idwt_deadline () =
    Models.Experiment.run_workload ?idwt_deadline Models.Experiment.V1
      (Models.Workload.make ~payload:false lossless)
  in
  let o = run () in
  Alcotest.(check bool) "clean run has clean resilience" true
    (Models.Outcome.is_clean o.Models.Outcome.resilience);
  let strict = run ~idwt_deadline:(Sim.Sim_time.us 1) () in
  Alcotest.(check bool) "impossible IDWT deadline counted" true
    (strict.Models.Outcome.resilience.Models.Outcome.deadline_misses > 0);
  (* ret_check observes; it must not perturb the timed behaviour. *)
  Alcotest.(check (float 1e-9)) "deadline monitoring is timing-neutral"
    o.Models.Outcome.decode_ms strict.Models.Outcome.decode_ms

let test_table_text_contains_rows () =
  let t1 = Models.Tables.table1 ~payload:false () in
  List.iter
    (fun fragment ->
      Alcotest.(check bool) fragment true (Str_util.contains t1 fragment))
    [ "SW only"; "6b HW/SW SO on bus & P2P"; "Derived factors" ];
  let t2 = Models.Tables.table2 () in
  List.iter
    (fun fragment ->
      Alcotest.(check bool) fragment true (Str_util.contains t2 fragment))
    [ "IDWT53"; "IDWT97"; "occupied slices"; "FOSSY/reference" ]

let test_report_formatting () =
  Alcotest.(check string) "ms" "12.3" (Osss.Report.fmt_ms 12.34);
  Alcotest.(check string) "factor" "4.35x" (Osss.Report.fmt_factor 4.352);
  Alcotest.(check string) "pct" "88.8%" (Osss.Report.fmt_pct 88.8)

let () =
  Alcotest.run "models"
    [
      ( "profile",
        [
          Alcotest.test_case "shares sum to 100%" `Quick
            test_profile_shares_sum_to_100;
          Alcotest.test_case "decode spread balanced" `Quick
            test_profile_decode_spread_balanced;
          Alcotest.test_case "decode mean 180 ms" `Quick
            test_profile_decode_mean_is_180ms;
        ] );
      ( "meter",
        [
          Alcotest.test_case "interval union" `Quick test_meter_union;
          Alcotest.test_case "nested and adjacent intervals" `Quick
            test_meter_nested_and_adjacent;
          Alcotest.test_case "zero-width intervals" `Quick
            test_meter_zero_width;
        ] );
      ( "functional",
        [
          Alcotest.test_case "all versions decode correctly" `Slow
            test_all_versions_decode_correctly;
          Alcotest.test_case "stage order enforced" `Quick
            test_workload_rejects_out_of_order_stages;
          Alcotest.test_case "payload does not change timing" `Quick
            test_payload_does_not_change_timing;
        ] );
      ( "table1",
        [
          Alcotest.test_case "paper relations hold" `Quick
            test_paper_relations_hold;
          Alcotest.test_case "v1 absolute times" `Quick test_v1_absolute_times;
          Alcotest.test_case "one IDWT interval per tile" `Quick
            test_idwt_call_counts;
          Alcotest.test_case "VTA decode above app layer" `Quick
            test_vta_decode_slower_than_app;
          Alcotest.test_case "simulation deterministic" `Quick test_determinism;
          Alcotest.test_case "VTA traces pinned" `Quick test_vta_traces_pinned;
          Alcotest.test_case "Table 1 timing pinned" `Quick
            test_table1_timing_pinned;
          Alcotest.test_case "VTA runs allocate no block-RAM storage" `Quick
            test_vta_runs_allocate_no_block_ram;
          Alcotest.test_case "VTA runs take rotations in runs" `Quick
            test_vta_runs_take_rotations_in_runs;
        ] );
      ( "figure1",
        [ Alcotest.test_case "stage shares match" `Quick test_figure1_shares_match ]
      );
      ( "table2",
        [
          Alcotest.test_case "IDWT53 shape" `Quick test_table2_idwt53_shape;
          Alcotest.test_case "IDWT97 shape" `Quick test_table2_idwt97_shape;
          Alcotest.test_case "LoC relations" `Quick test_table2_loc_relations;
          Alcotest.test_case "cores validate" `Quick test_idwt_cores_validate;
          Alcotest.test_case "Table 2 is the FOSSY flow's" `Quick
            test_table2_is_the_flows;
        ] );
      ( "helpers",
        [
          Alcotest.test_case "version names" `Quick test_version_names;
          Alcotest.test_case "outcome helpers" `Quick test_outcome_helpers;
          Alcotest.test_case "resilience clean + deadline misses" `Quick
            test_resilience_clean_and_misses;
          Alcotest.test_case "table text rows" `Quick test_table_text_contains_rows;
          Alcotest.test_case "report formatting" `Quick test_report_formatting;
        ] );
      ( "vta_mapping",
        [
          Alcotest.test_case "mappings valid" `Quick test_vta_mapping_valid;
          Alcotest.test_case "processor count" `Quick test_vta_mapping_processors;
          Alcotest.test_case "registry names the simulated channels" `Quick
            test_vta_mapping_names_simulated_channels;
        ] );
    ]
