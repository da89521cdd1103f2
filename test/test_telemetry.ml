(* Telemetry layer: JSON emitter, metrics, sink semantics, span
   nesting, exporters, and the end-to-end contracts against the
   decoder models (coverage, idwt span union = idwt_ms, disabled sink
   leaves outcomes bit-identical). *)

let lossless = Jpeg2000.Codestream.Lossless

(* -- Json ----------------------------------------------------------- *)

let test_json_scalars () =
  let s v = Telemetry.Json.to_string v in
  Alcotest.(check string) "null" "null" (s Telemetry.Json.Null);
  Alcotest.(check string) "true" "true" (s (Telemetry.Json.Bool true));
  Alcotest.(check string) "int" "-42" (s (Telemetry.Json.Int (-42)));
  Alcotest.(check string) "float" "1.5" (s (Telemetry.Json.Float 1.5));
  Alcotest.(check string) "nan is null" "null"
    (s (Telemetry.Json.Float Float.nan));
  Alcotest.(check string) "inf is null" "null"
    (s (Telemetry.Json.Float Float.infinity))

let test_json_strings () =
  let s v = Telemetry.Json.to_string v in
  Alcotest.(check string) "plain" {|"abc"|} (s (Telemetry.Json.Str "abc"));
  Alcotest.(check string) "escapes" {|"a\"b\\c\nd"|}
    (s (Telemetry.Json.Str "a\"b\\c\nd"))

let test_json_nested () =
  let v =
    Telemetry.Json.Obj
      [
        ("xs", Telemetry.Json.List [ Telemetry.Json.Int 1; Telemetry.Json.Int 2 ]);
        ("o", Telemetry.Json.Obj []);
      ]
  in
  Alcotest.(check string) "nested" {|{"xs":[1,2],"o":{}}|}
    (Telemetry.Json.to_string v)

let test_json_parse_roundtrip () =
  let docs =
    [
      Telemetry.Json.Null;
      Telemetry.Json.Bool false;
      Telemetry.Json.Int (-7);
      Telemetry.Json.Float 2.5;
      Telemetry.Json.Str "a\"b\\c\nd";
      Telemetry.Json.List
        [ Telemetry.Json.Int 1; Telemetry.Json.Str "x"; Telemetry.Json.Null ];
      Telemetry.Json.Obj
        [
          ("k", Telemetry.Json.List []);
          ("o", Telemetry.Json.Obj [ ("n", Telemetry.Json.Int 3) ]);
        ];
    ]
  in
  List.iter
    (fun v ->
      let s = Telemetry.Json.to_string v in
      match Telemetry.Json.parse s with
      | Ok v' -> Alcotest.(check bool) s true (v = v')
      | Error e -> Alcotest.failf "parse %s: %s" s e)
    docs

let test_json_parse_errors () =
  let rejected s =
    match Telemetry.Json.parse s with Ok _ -> false | Error _ -> true
  in
  List.iter
    (fun s -> Alcotest.(check bool) ("rejects " ^ s) true (rejected s))
    [ ""; "{"; "[1,]"; "nul"; {|{"a":1|}; "1 2"; {|"unterminated|} ]

let test_json_accessors () =
  match Telemetry.Json.parse {|{"a":{"b":[1,2.5,"s"]},"n":4}|} with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok v ->
    let open Telemetry.Json in
    Alcotest.(check (option int)) "int" (Some 4)
      (Option.bind (member "n" v) to_int_opt);
    Alcotest.(check (option (float 0.))) "int as float" (Some 4.)
      (Option.bind (member "n" v) to_float_opt);
    let xs =
      Option.bind (member "a" v) (member "b")
      |> Fun.flip Option.bind to_list_opt
      |> Option.value ~default:[]
    in
    Alcotest.(check int) "list length" 3 (List.length xs);
    Alcotest.(check (option string)) "string" (Some "s")
      (to_string_opt (List.nth xs 2));
    Alcotest.(check (option int)) "missing member" None
      (Option.bind (member "zz" v) to_int_opt)

(* -- Metrics -------------------------------------------------------- *)

let test_metrics_counters_gauges () =
  let m = Telemetry.Metrics.create () in
  Telemetry.Metrics.incr m "a";
  Telemetry.Metrics.incr m ~by:4 "a";
  Telemetry.Metrics.incr m "b";
  Telemetry.Metrics.set m "g" 7;
  Telemetry.Metrics.set m "g" 9;
  Alcotest.(check int) "counter a" 5 (Telemetry.Metrics.counter m "a");
  Alcotest.(check int) "counter absent" 0 (Telemetry.Metrics.counter m "zz");
  Alcotest.(check (list (pair string int))) "counters sorted"
    [ ("a", 5); ("b", 1) ]
    (Telemetry.Metrics.counters m);
  Alcotest.(check (list (pair string int))) "gauge last-write-wins"
    [ ("g", 9) ]
    (Telemetry.Metrics.gauges m)

let test_metrics_dist () =
  let m = Telemetry.Metrics.create () in
  List.iter (Telemetry.Metrics.observe m "d") [ 0; 1; 3; 1000 ];
  match Telemetry.Metrics.dists m with
  | [ ("d", d) ] ->
    Alcotest.(check int) "count" 4 d.Telemetry.Metrics.d_count;
    Alcotest.(check int) "sum" 1004 d.Telemetry.Metrics.d_sum;
    Alcotest.(check int) "min" 0 d.Telemetry.Metrics.d_min;
    Alcotest.(check int) "max" 1000 d.Telemetry.Metrics.d_max
  | other -> Alcotest.failf "unexpected dists (%d)" (List.length other)

let test_metrics_buckets () =
  Alcotest.(check int) "0" 0 (Telemetry.Metrics.bucket_index 0);
  Alcotest.(check int) "1" 1 (Telemetry.Metrics.bucket_index 1);
  Alcotest.(check int) "2" 2 (Telemetry.Metrics.bucket_index 2);
  Alcotest.(check int) "3" 2 (Telemetry.Metrics.bucket_index 3);
  Alcotest.(check int) "4" 3 (Telemetry.Metrics.bucket_index 4);
  let lo, hi = Telemetry.Metrics.bucket_bounds 3 in
  Alcotest.(check (pair int int)) "bounds 3" (4, 8) (lo, hi)

let test_metrics_exemplars () =
  let m = Telemetry.Metrics.create () in
  Telemetry.Metrics.observe m "d" 100;
  Alcotest.(check int) "no exemplar captured without one" 0
    (match Telemetry.Metrics.dists m with
    | [ (_, d) ] -> List.length (Telemetry.Metrics.exemplars d)
    | _ -> -1);
  (* Same bucket [64,128): the largest sample wins, first wins a tie. *)
  Telemetry.Metrics.observe m ~exemplar:(1, "t1") "d" 90;
  Telemetry.Metrics.observe m ~exemplar:(2, "t2") "d" 120;
  Telemetry.Metrics.observe m ~exemplar:(3, "t3") "d" 120;
  Telemetry.Metrics.observe m ~exemplar:(4, "t4") "d" 70;
  (* A different bucket keeps its own exemplar. *)
  Telemetry.Metrics.observe m ~exemplar:(5, "t5") "d" 3;
  match Telemetry.Metrics.dists m with
  | [ ("d", d) ] -> (
    match Telemetry.Metrics.exemplars d with
    | [ (b_small, small); (b_large, large) ] ->
      Alcotest.(check int) "small bucket" (Telemetry.Metrics.bucket_index 3)
        b_small;
      Alcotest.(check int) "small id" 5 small.Telemetry.Metrics.ex_id;
      Alcotest.(check int) "large bucket" (Telemetry.Metrics.bucket_index 120)
        b_large;
      Alcotest.(check int) "largest sample wins" 120
        large.Telemetry.Metrics.ex_value;
      Alcotest.(check int) "first occurrence wins the tie" 2
        large.Telemetry.Metrics.ex_id;
      Alcotest.(check string) "trace carried" "t2"
        large.Telemetry.Metrics.ex_trace
    | ex -> Alcotest.failf "expected 2 exemplars, got %d" (List.length ex))
  | other -> Alcotest.failf "unexpected dists (%d)" (List.length other)

let test_report_quantiles_and_exemplars () =
  let m = Telemetry.Metrics.create () in
  (* 99 small samples and one huge one: p50 sits low, p99 lands on the
     big sample's bucket and resolves to its exemplar. *)
  for i = 1 to 99 do
    Telemetry.Metrics.observe m ~exemplar:(i, "lo") "lat" 10
  done;
  Telemetry.Metrics.observe m ~exemplar:(999, "hi") "lat" 5000;
  let r = Telemetry.Report.of_metrics m in
  match Telemetry.Report.dist r "lat" with
  | None -> Alcotest.fail "dist missing"
  | Some d ->
    let lo_bound, _ = Telemetry.Metrics.bucket_bounds (Telemetry.Metrics.bucket_index 10) in
    let hi_bound, _ = Telemetry.Metrics.bucket_bounds (Telemetry.Metrics.bucket_index 5000) in
    Alcotest.(check (option int)) "p50 bucket" (Some lo_bound)
      (Telemetry.Report.quantile_bucket d 0.5);
    Alcotest.(check (option int)) "p99 bucket... p100" (Some hi_bound)
      (Telemetry.Report.quantile_bucket d 1.0);
    (match Telemetry.Report.quantile_exemplar d 1.0 with
    | Some e ->
      Alcotest.(check int) "p100 exemplar id" 999 e.Telemetry.Metrics.ex_id;
      Alcotest.(check string) "p100 exemplar trace" "hi"
        e.Telemetry.Metrics.ex_trace
    | None -> Alcotest.fail "p100 exemplar missing");
    (* Exemplars survive the JSON export. *)
    let s = Telemetry.Json.to_string (Telemetry.Report.to_json r) in
    Alcotest.(check bool) "exemplars in json" true
      (Str_util.contains s {|"exemplars"|})

let test_report_dropped_events_counter () =
  let sink, () =
    Telemetry.Sink.with_sink ~capacity:3 (fun () ->
        for i = 1 to 10 do
          Telemetry.Span.instant ~ts_ps:i ~track:"t" "e"
        done)
  in
  let r = Telemetry.Sink.report sink in
  Alcotest.(check int) "dropped surfaces as a counter" 7
    (Telemetry.Report.counter r "telemetry.dropped_events");
  (* Reporting twice must not double-count. *)
  Alcotest.(check int) "stable across reports" 7
    (Telemetry.Report.counter (Telemetry.Sink.report sink)
       "telemetry.dropped_events")

(* -- Event ---------------------------------------------------------- *)

let span ?(track = "t") ?(name = "s") ?(cat = "c") ts dur =
  {
    Telemetry.Event.ts_ps = ts;
    track;
    name;
    cat;
    phase = Telemetry.Event.Complete dur;
    args = [];
  }

let test_event_union () =
  Alcotest.(check int) "empty" 0 (Telemetry.Event.union_ps []);
  Alcotest.(check int) "disjoint" 20
    (Telemetry.Event.union_ps [ span 0 10; span 100 10 ]);
  Alcotest.(check int) "overlap once" 15
    (Telemetry.Event.union_ps [ span 0 10; span 5 10 ]);
  Alcotest.(check int) "nested" 10
    (Telemetry.Event.union_ps [ span 0 10; span 2 3 ]);
  Alcotest.(check int) "adjacent" 20
    (Telemetry.Event.union_ps [ span 0 10; span 10 10 ])

(* -- Profile -------------------------------------------------------- *)

let test_profile_nesting_and_merge () =
  let events =
    [
      span ~track:"t" ~name:"outer" 0 100;
      span ~track:"t" ~name:"a" 10 20;
      span ~track:"t" ~name:"a" 40 10;
      span ~track:"t" ~name:"b" 60 5;
      span ~track:"t" ~name:"leaf" 12 4;
      span ~track:"u" ~name:"x" 0 7;
    ]
  in
  let p = Telemetry.Profile.of_events events in
  Alcotest.(check (list string)) "tracks sorted" [ "t"; "u" ]
    (Telemetry.Profile.tracks p);
  Alcotest.(check bool) "invariant" true (Telemetry.Profile.invariant p);
  Alcotest.(check int) "total over roots" 107 (Telemetry.Profile.total_ps p);
  let node path =
    match Telemetry.Profile.find p path with
    | Some n -> n
    | None -> Alcotest.failf "missing node %s" path
  in
  let outer = node "t;outer" in
  Alcotest.(check int) "outer total" 100 outer.Telemetry.Profile.total_ps;
  Alcotest.(check int) "outer self excludes children" 65
    outer.Telemetry.Profile.self_ps;
  let a = node "t;outer;a" in
  Alcotest.(check int) "same-name siblings merge: count" 2
    a.Telemetry.Profile.count;
  Alcotest.(check int) "merged total" 30 a.Telemetry.Profile.total_ps;
  Alcotest.(check int) "merged self excludes grandchild" 26
    a.Telemetry.Profile.self_ps;
  Alcotest.(check int) "nested leaf" 4
    (node "t;outer;a;leaf").Telemetry.Profile.total_ps;
  Alcotest.(check (option string)) "absent path" None
    (Option.map
       (fun n -> n.Telemetry.Profile.name)
       (Telemetry.Profile.find p "t;outer;zz"))

let test_profile_collapsed_and_top () =
  let events =
    [ span ~track:"t" ~name:"outer" 0 100; span ~track:"t" ~name:"a" 10 20 ]
  in
  let p = Telemetry.Profile.of_events events in
  Alcotest.(check string) "collapsed lines sorted, newline-terminated"
    "t;outer 80\nt;outer;a 20\n"
    (Telemetry.Profile.collapsed p);
  Alcotest.(check (list (pair string int))) "top_self self-desc"
    [ ("t;outer", 80); ("t;outer;a", 20) ]
    (Telemetry.Profile.top_self ~n:5 p);
  Alcotest.(check (list (pair string int))) "top_self truncates"
    [ ("t;outer", 80) ]
    (Telemetry.Profile.top_self ~n:1 p)

let test_profile_synthetic () =
  let p = Telemetry.Profile.of_events [ span ~track:"t" ~name:"s" 0 10 ] in
  let p =
    Telemetry.Profile.add_synthetic p ~track:"t1"
      [ ([ "cleanup" ], 500, 3); ([ "refine" ], 200, 1) ]
  in
  Alcotest.(check (list string)) "synthetic track grafted" [ "t"; "t1" ]
    (Telemetry.Profile.tracks p);
  Alcotest.(check bool) "invariant" true (Telemetry.Profile.invariant p);
  Alcotest.(check int) "leaf self" 500
    (match Telemetry.Profile.find p "t1;cleanup" with
    | Some n -> n.Telemetry.Profile.self_ps
    | None -> -1);
  (* Re-grafting the same track replaces it rather than accumulating. *)
  let p = Telemetry.Profile.add_synthetic p ~track:"t1" [ ([ "cleanup" ], 9, 1) ] in
  Alcotest.(check int) "replaced" 9
    (match Telemetry.Profile.find p "t1;cleanup" with
    | Some n -> n.Telemetry.Profile.self_ps
    | None -> -1)

(* Random well-nested span forest: recursively carve each interval into
   disjoint child sub-intervals, drawing names from a small pool so
   same-name merges happen. Returns the events and the exact total of
   the top-level spans. *)
let gen_nested_spans seed =
  let rng = Faults.Rng.create seed in
  let events = ref [] in
  let rec go depth start len =
    let name = Printf.sprintf "n%d" (Faults.Rng.int rng 4) in
    events := span ~track:"t" ~name start len :: !events;
    if depth < 4 && len > 6 then begin
      let pos = ref (start + Faults.Rng.int rng 3) in
      let stop = start + len in
      for _ = 1 to Faults.Rng.int rng 4 do
        let room = stop - !pos in
        if room > 2 then begin
          let child_len = 1 + Faults.Rng.int rng (room - 1) in
          go (depth + 1) !pos child_len;
          pos := !pos + child_len + Faults.Rng.int rng 3
        end
      done
    end
  in
  let pos = ref 0 in
  let top_total = ref 0 in
  for _ = 1 to 1 + Faults.Rng.int rng 4 do
    let len = 8 + Faults.Rng.int rng 120 in
    go 0 !pos len;
    top_total := !top_total + len;
    pos := !pos + len + 1 + Faults.Rng.int rng 6
  done;
  (!events, !top_total)

let prop_profile_tree_invariant =
  QCheck.Test.make ~name:"cost tree: total = self + sum of children" ~count:200
    QCheck.small_int (fun seed ->
      let events, top_total = gen_nested_spans seed in
      let p = Telemetry.Profile.of_events events in
      (* The invariant must hold on every node, the track total must be
         exactly the top-level spans' total, and the collapsed export
         must not depend on event order. *)
      Telemetry.Profile.invariant p
      && Telemetry.Profile.total_ps p = top_total
      && Telemetry.Profile.collapsed p
         = Telemetry.Profile.collapsed
             (Telemetry.Profile.of_events (List.rev events)))

(* -- Sink ----------------------------------------------------------- *)

let test_sink_disabled_noops () =
  Alcotest.(check bool) "disabled" false (Telemetry.Sink.enabled ());
  (* All hooks must be silent no-ops without a sink. *)
  Telemetry.Sink.incr "x";
  Telemetry.Sink.observe "y" 1;
  Telemetry.Sink.set_gauge "z" 2;
  Telemetry.Span.complete ~ts_ps:0 ~dur_ps:5 "s";
  Telemetry.Span.instant ~ts_ps:0 "i"

let test_sink_capacity () =
  let sink, () =
    Telemetry.Sink.with_sink ~capacity:3 (fun () ->
        for i = 1 to 10 do
          Telemetry.Span.instant ~ts_ps:i ~track:"t" "e"
        done)
  in
  Alcotest.(check int) "kept" 3 (Telemetry.Sink.event_count sink);
  Alcotest.(check int) "dropped" 7 (Telemetry.Sink.dropped sink);
  Alcotest.(check (list int)) "most recent survive" [ 8; 9; 10 ]
    (List.map
       (fun e -> e.Telemetry.Event.ts_ps)
       (Telemetry.Sink.events sink));
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Telemetry.Sink.create: capacity <= 0") (fun () ->
      ignore (Telemetry.Sink.create ~capacity:0 ()))

let test_sink_restored_after_exception () =
  (match Telemetry.Sink.with_sink (fun () -> failwith "boom") with
  | _ -> Alcotest.fail "exception swallowed"
  | exception Failure _ -> ());
  (* The failed with_sink must not leave its sink installed. *)
  Alcotest.(check bool) "sink restored" false (Telemetry.Sink.enabled ())

let test_sink_context_default_track () =
  let sink, () =
    Telemetry.Sink.with_sink (fun () ->
        Telemetry.Span.instant ~ts_ps:0 "no-context";
        (match Telemetry.Sink.active () with
        | Some s -> Telemetry.Sink.set_context s (Some "proc-a")
        | None -> assert false);
        Telemetry.Span.instant ~ts_ps:1 "with-context")
  in
  Alcotest.(check (list string)) "tracks" [ "main"; "proc-a" ]
    (Telemetry.Event.tracks (Telemetry.Sink.events sink))

(* -- exporters ------------------------------------------------------ *)

let test_chrome_export () =
  let events = [ span ~track:"a" 1_000_000 2_000_000; span ~track:"b" 0 500 ] in
  let s = Telemetry.Chrome.to_string events in
  List.iter
    (fun fragment ->
      Alcotest.(check bool) fragment true (Str_util.contains s fragment))
    [
      {|"traceEvents":[|};
      {|"thread_name"|};
      {|"process_name"|};
      {|"ph":"X"|};
      (* 1_000_000 ps = 1 us *)
      {|"ts":1|};
    ]

let test_vcd_export () =
  let events = [ span ~track:"a b" 0 10; span ~track:"a b" 2 3 ] in
  let s = Telemetry.Vcd_export.render events in
  List.iter
    (fun fragment ->
      Alcotest.(check bool) fragment true (Str_util.contains s fragment))
    [ "$timescale 1ps $end"; "a_b"; "$dumpvars"; "#0"; "#2"; "#5"; "#10" ];
  Alcotest.(check string) "sanitize" "x_y.z_2"
    (Telemetry.Vcd_export.sanitize "x y.z-2")

(* The whole two-span document, recorded before the span-depth and
   signal-level writers shared one renderer. *)
let test_vcd_export_bytes () =
  Alcotest.(check string) "document"
    {|$date
  (simulation)
$end
$version
  osss-jpeg2000 telemetry span depth
$end
$timescale 1ps $end
$scope module telemetry $end
$var wire 8 ! a_b $end
$upscope $end
$enddefinitions $end
$dumpvars
b00000000 !
$end
#0
b00000001 !
#2
b00000010 !
#5
b00000001 !
#10
b00000000 !
|}
    (Telemetry.Vcd_export.render
       [ span ~track:"a b" 0 10; span ~track:"a b" 2 3 ])

(* -- end-to-end against the decoder models -------------------------- *)

let traced_v7b =
  lazy
    (Telemetry.Sink.with_sink (fun () ->
         Models.Experiment.run ~payload:false Models.Experiment.V7b lossless))

let ps_of_ms ms = int_of_float ((ms *. 1e9) +. 0.5)

let test_trace_tracks () =
  let sink, _ = Lazy.force traced_v7b in
  let tracks = Telemetry.Event.tracks (Telemetry.Sink.events sink) in
  List.iter
    (fun expected ->
      Alcotest.(check bool) ("track " ^ expected) true
        (List.mem expected tracks))
    [ "opb"; "microblaze0"; "idwt53.filter"; "hwsw_so" ]

let test_trace_coverage () =
  let sink, outcome = Lazy.force traced_v7b in
  let events = Telemetry.Sink.events sink in
  let decode_ps = ps_of_ms outcome.Models.Outcome.decode_ms in
  let union = Telemetry.Event.union_ps events in
  Alcotest.(check bool)
    (Printf.sprintf "spans cover >= 95%% of decode time (%d/%d)" union
       decode_ps)
    true
    (float_of_int union >= 0.95 *. float_of_int decode_ps);
  Alcotest.(check bool) "no span overruns the run" true
    (List.for_all
       (fun e ->
         e.Telemetry.Event.ts_ps + Telemetry.Event.duration_ps e <= decode_ps)
       events)

(* Per-track spans must form properly nested intervals: sorted by
   (start asc, duration desc), each span either nests inside the
   innermost open one or starts after it ends. *)
let check_nesting track spans =
  let sorted =
    List.sort
      (fun a b ->
        let sa = a.Telemetry.Event.ts_ps and sb = b.Telemetry.Event.ts_ps in
        if sa <> sb then compare sa sb
        else
          compare
            (Telemetry.Event.duration_ps b)
            (Telemetry.Event.duration_ps a))
      spans
  in
  let stack = ref [] in
  List.iter
    (fun s ->
      let s_start = s.Telemetry.Event.ts_ps in
      let s_end = s_start + Telemetry.Event.duration_ps s in
      let rec pop () =
        match !stack with
        | top_end :: rest when top_end <= s_start ->
          stack := rest;
          pop ()
        | _ -> ()
      in
      pop ();
      (match !stack with
      | top_end :: _ when s_end > top_end ->
        Alcotest.failf
          "track %s: span %s [%d,%d) partially overlaps an open span ending %d"
          track s.Telemetry.Event.name s_start s_end top_end
      | _ -> ());
      stack := s_end :: !stack)
    sorted

let test_trace_nesting () =
  let sink, _ = Lazy.force traced_v7b in
  let events = Telemetry.Sink.events sink in
  List.iter
    (fun track -> check_nesting track (Telemetry.Event.spans ~track events))
    (Telemetry.Event.tracks events)

let test_trace_metrics_consistent () =
  let sink, outcome = Lazy.force traced_v7b in
  let report = outcome.Models.Outcome.telemetry in
  let decode_ps = ps_of_ms outcome.Models.Outcome.decode_ms in
  (* The bus can't be busy longer than the whole run. *)
  let bus_busy = Telemetry.Report.dist_sum report "lock.opb.held_ps" in
  Alcotest.(check bool) "bus exercised" true (bus_busy > 0);
  Alcotest.(check bool)
    (Printf.sprintf "bus busy (%d) <= decode (%d)" bus_busy decode_ps)
    true (bus_busy <= decode_ps);
  (* Union of "idwt" stage spans is the meter's idwt_ms, exactly. *)
  let idwt_union =
    Telemetry.Event.union_ps
      (Telemetry.Event.spans ~name:"idwt" ~cat:"stage"
         (Telemetry.Sink.events sink))
  in
  let idwt_ps = ps_of_ms outcome.Models.Outcome.idwt_ms in
  Alcotest.(check bool)
    (Printf.sprintf "idwt span union (%d) = idwt_ms (%d)" idwt_union idwt_ps)
    true
    (abs (idwt_union - idwt_ps) <= 1000);
  (* Kernel gauges were snapshotted into the report. *)
  Alcotest.(check bool) "delta cycles gauge" true
    (match Telemetry.Report.gauge report "kernel.delta_cycles" with
    | Some n -> n > 0
    | None -> false);
  (* Grant counters exist for the bus masters. *)
  Alcotest.(check bool) "opb grants counted" true
    (Telemetry.Report.counter_sum report ~prefix:"lock.opb.grants." > 0)

let test_sink_does_not_perturb_models () =
  List.iter
    (fun version ->
      let plain = Models.Experiment.run ~payload:false version lossless in
      let _sink, traced =
        Telemetry.Sink.with_sink (fun () ->
            Models.Experiment.run ~payload:false version lossless)
      in
      Alcotest.(check bool)
        (Models.Experiment.version_name version
        ^ " outcome bit-identical modulo telemetry")
        true
        ({ traced with Models.Outcome.telemetry = Telemetry.Report.empty }
        = plain))
    Models.Experiment.all_versions

let test_outcome_json () =
  let _sink, outcome = Lazy.force traced_v7b in
  let s = Telemetry.Json.to_string (Models.Outcome.to_json outcome) in
  List.iter
    (fun fragment ->
      Alcotest.(check bool) fragment true (Str_util.contains s fragment))
    [
      {|"version":"7b"|};
      {|"mode":"lossless"|};
      {|"decode_ms":|};
      {|"telemetry":{"counters":|};
      {|"lock.opb.grants.|};
    ]

let () =
  Alcotest.run "telemetry"
    [
      ( "json",
        [
          Alcotest.test_case "scalars" `Quick test_json_scalars;
          Alcotest.test_case "strings" `Quick test_json_strings;
          Alcotest.test_case "nested" `Quick test_json_nested;
          Alcotest.test_case "parse roundtrip" `Quick test_json_parse_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters and gauges" `Quick
            test_metrics_counters_gauges;
          Alcotest.test_case "dist" `Quick test_metrics_dist;
          Alcotest.test_case "buckets" `Quick test_metrics_buckets;
          Alcotest.test_case "exemplars" `Quick test_metrics_exemplars;
          Alcotest.test_case "report quantiles and exemplars" `Quick
            test_report_quantiles_and_exemplars;
          Alcotest.test_case "dropped events counter" `Quick
            test_report_dropped_events_counter;
        ] );
      ("event", [ Alcotest.test_case "interval union" `Quick test_event_union ]);
      ( "profile",
        [
          Alcotest.test_case "nesting and merge" `Quick
            test_profile_nesting_and_merge;
          Alcotest.test_case "collapsed and top_self" `Quick
            test_profile_collapsed_and_top;
          Alcotest.test_case "synthetic tracks" `Quick test_profile_synthetic;
          QCheck_alcotest.to_alcotest prop_profile_tree_invariant;
        ] );
      ( "sink",
        [
          Alcotest.test_case "disabled no-ops" `Quick test_sink_disabled_noops;
          Alcotest.test_case "capacity ring" `Quick test_sink_capacity;
          Alcotest.test_case "unmatched end" `Quick
            test_sink_restored_after_exception;
          Alcotest.test_case "context default track" `Quick
            test_sink_context_default_track;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome" `Quick test_chrome_export;
          Alcotest.test_case "vcd" `Quick test_vcd_export;
          Alcotest.test_case "vcd bytes" `Quick test_vcd_export_bytes;
        ] );
      ( "models",
        [
          Alcotest.test_case "v7b trace tracks" `Quick test_trace_tracks;
          Alcotest.test_case "v7b coverage >= 95%" `Quick test_trace_coverage;
          Alcotest.test_case "per-track nesting" `Quick test_trace_nesting;
          Alcotest.test_case "metrics consistent with outcome" `Quick
            test_trace_metrics_consistent;
          Alcotest.test_case "sink does not perturb outcomes" `Quick
            test_sink_does_not_perturb_models;
          Alcotest.test_case "outcome json" `Quick test_outcome_json;
        ] );
    ]
