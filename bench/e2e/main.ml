(* End-to-end host benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
       one workload in this process; the last stdout line is the JSON
       result (end-to-end metrics untraced, per-layer metrics traced)
     main.exe [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
       all six workloads, each in its own child process
     main.exe --compare A.json B.json
       per (workload, metric) verdicts between two --out files
     main.exe --list [--manifest BENCHMARK.json]
       workload and metric names, from the harness or the manifest

   See README.md in this directory for the workloads and metrics. *)

open Harness
module J = Telemetry.Json

let setups = 3

(* Marks the line of a run's stdout that carries its detail record. *)
let detail_prefix = "# detail "

let usage () =
  prerr_endline
    "usage: main.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]\n\
    \                [--out FILE]\n\
    \       main.exe --compare A.json B.json\n\
    \       main.exe --list [--manifest BENCHMARK.json]";
  exit 2

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("bench/e2e: " ^ s); exit 2) fmt

type args = {
  workload : string option;
  seed : int;
  seconds : float;
  trace : bool;
  out : string option;
  compare : (string * string) option;
  list : bool;
  manifest : string option;
}

let parse_args argv =
  let int_arg flag v =
    match int_of_string_opt v with Some n -> n | None -> die "%s: not an integer: %S" flag v
  in
  let rec go a = function
    | [] -> a
    | "--workload" :: v :: rest -> go { a with workload = Some v } rest
    | "--seed" :: v :: rest -> go { a with seed = int_arg "--seed" v } rest
    | "--seconds" :: v :: rest -> (
      match float_of_string_opt v with
      | Some s when s > 0.0 -> go { a with seconds = s } rest
      | _ -> die "--seconds: not a positive number: %S" v)
    | "--trace" :: v :: rest -> (
      match v with
      | "0" -> go { a with trace = false } rest
      | "1" -> go { a with trace = true } rest
      | _ -> die "--trace: expected 0 or 1, got %S" v)
    | "--out" :: v :: rest -> go { a with out = Some v } rest
    | "--compare" :: x :: y :: rest -> go { a with compare = Some (x, y) } rest
    | "--list" :: rest -> go { a with list = true } rest
    | "--manifest" :: v :: rest -> go { a with manifest = Some v } rest
    | _ -> usage ()
  in
  go
    {
      workload = None;
      seed = 11;
      seconds = 10.0;
      trace = false;
      out = None;
      compare = None;
      list = false;
      manifest = None;
    }
    (List.tl (Array.to_list argv))

let host_json () =
  J.Obj
    [
      ("cores", J.Int (Domain.recommended_domain_count ()));
      ("ocaml", J.Str Sys.ocaml_version);
      ("rev", J.Str (git_rev ()));
    ]

let pp_host () =
  Printf.sprintf "%d cores, OCaml %s, rev %s"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version (git_rev ())

(* -- one workload ------------------------------------------------------------ *)

(* Timed rounds until [seconds] of timed work have accumulated (at
   least two, so every metric has a spread). *)
let measure ~seconds round =
  let rec go acc elapsed =
    if elapsed >= seconds && List.length acc >= 2 then List.rev acc
    else
      let ((_, (t : timing)) as r) = timed_round round in
      go (r :: acc) (elapsed +. t.seconds)
  in
  go [] 0.0

let rate ((r : Workloads.round), t) = float_of_int r.ops /. t

let end_to_end_stats ~setups ~rounds ~rss =
  [
    ("setup_s", stat_of (List.map (fun t -> t.normalised) setups));
    ("ops_per_s", stat_of (List.map (fun (r, t) -> rate (r, t.normalised)) rounds));
    ("peak_rss_mb", stat_of [ rss ]);
  ]

(* The same quantities before the contention correction, and the
   calibration kernel's median time, for the detail record. *)
let uncorrected ~setups ~rounds =
  let cal = median (List.map (fun t -> t.cal_ms) (setups @ List.map snd rounds)) in
  [
    ("setup_s", median (List.map (fun (t : timing) -> t.seconds) setups));
    ("ops_per_s", median (List.map (fun (r, (t : timing)) -> rate (r, t.seconds)) rounds));
    ("calibration_ms", cal);
  ]

let totals rounds =
  List.fold_left
    (fun (a, f) ((r : Workloads.round), _) -> (a + r.attempted, f + r.failed))
    (0, 0) rounds

let finite v = if Float.is_finite v then v else 0.0

let metric_json ~detail (m, (s : stat)) =
  ( m.name,
    J.Obj
      ([ ("value", J.Float (finite s.value)); ("unit", J.Str m.unit_) ]
      @
      if detail then
        [
          ("q1", J.Float (finite s.q1));
          ("q3", J.Float (finite s.q3));
          ("samples", J.List (List.map (fun v -> J.Float (finite v)) s.samples));
        ]
      else []) )

let print_table metrics =
  Printf.printf "  %-36s %-15s %14s %14s %14s %5s\n" "metric" "unit" "median" "q1"
    "q3" "n";
  List.iter
    (fun (m, s) ->
      Printf.printf "  %-36s %-15s %14.6g %14.6g %14.6g %5d\n" m.name m.unit_ s.value
        s.q1 s.q3 (List.length s.samples))
    metrics

let trace_path a (w : Workloads.t) =
  let dir = Filename.concat "bench" (Filename.concat "e2e" "out") in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Filename.concat dir (Printf.sprintf "%s-seed%d.trace.json" w.name a.seed)

(* The traced run: the timed loop again under a telemetry sink (their
   ratio is the sink's overhead), then the replay through the layers. *)
let traced_layers a w (inst : Workloads.instance) ~untraced =
  let sink = ref None in
  let traced =
    measure ~seconds:(a.seconds /. 2.0) (fun () ->
        let s, r = Telemetry.Sink.with_sink inst.round in
        sink := Some s;
        r)
  in
  let median_s f rounds = median (List.map (fun (_, t) -> f t) rounds) in
  let untraced_s = median_s (fun t -> t.normalised) untraced in
  reset_spans ();
  let (layers, replay_ns), replay_t =
    timed_round (fun () -> inst.replay ~sink:(Option.get !sink))
  in
  (* The untraced round's time at the host speed the replay ran at. *)
  let round_ns = untraced_s *. 1e9 /. speed_factor (replay_t.cal_ms *. 1e6) in
  let layers =
    ("telemetry.sink_overhead", median_s (fun t -> t.normalised) traced /. untraced_s)
    :: ("replay.explained_share", float_of_int replay_ns /. round_ns)
    :: layers
  in
  List.iter
    (fun (name, _) ->
      if not (List.exists (fun m -> String.equal m.name name) per_layer) then
        failwith ("unregistered per-layer metric " ^ name))
    layers;
  let path = trace_path a w in
  write_trace path;
  Printf.printf "  trace: %s (%d spans; open in ui.perfetto.dev)\n" path
    (List.length !recorded);
  ( List.map
      (fun m -> (m, stat_of [ Option.value (List.assoc_opt m.name layers) ~default:0.0 ]))
      per_layer,
    traced )

let run_one a (w : Workloads.t) =
  Printf.printf "== %s  seed %d  %.3g s  trace %d  (%s)\n%!" w.name a.seed a.seconds
    (Bool.to_int a.trace) (pp_host ());
  (* Set up several times and keep the last instance: set-up time is
     its own metric, reported as a median. Each discarded instance is
     collected before the next set-up starts, so no set-up pays for the
     one before it. *)
  let rec set_up n times =
    let inst, t = timed_round (fun () -> w.setup a.seed) in
    if n = 1 then (inst, List.rev (t :: times))
    else (
      Gc.full_major ();
      set_up (n - 1) (t :: times))
  in
  let (inst : Workloads.instance), setups = set_up setups [] in
  let v_attempted, v_failed = inst.verify () in
  (* Peak RSS covers the timed rounds, from the resident set that
     set-up and the gate leave behind once collected. *)
  if not (reset_peak_rss ()) then
    print_endline "  peak RSS could not be reset: it includes set-up and verification";
  let untraced =
    measure ~seconds:(if a.trace then a.seconds /. 2.0 else a.seconds) inst.round
  in
  let rss = peak_rss_mb () in
  let metrics, traced =
    if a.trace then traced_layers a w inst ~untraced
    else
      ( List.map
          (fun (name, s) -> (Option.get (find_metric name), s))
          (end_to_end_stats ~setups ~rounds:untraced ~rss),
        [] )
  in
  let attempted, failed = totals (untraced @ traced) in
  let attempted = attempted + v_attempted and failed = failed + v_failed in
  let correct = failed = 0 in
  print_table
    (if a.trace then List.filter (fun (_, s) -> s.value <> 0.0) metrics else metrics);
  if a.trace then
    print_endline
      "  (per-layer metrics not listed are 0: this workload does not run that layer)";
  let raw = uncorrected ~setups ~rounds:untraced in
  Printf.printf "  uncorrected: %s (nominal calibration %.2f ms)\n"
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s %.6g" k v) raw))
    (nominal_cal_ns /. 1e6);
  Printf.printf "  attempted %d  failed %d  correct %b\n" attempted failed correct;
  let detail =
    J.Obj
      [
        ("workload", J.Str w.name);
        ("seed", J.Int a.seed);
        ("seconds", J.Float a.seconds);
        ("trace", J.Bool a.trace);
        ("host", host_json ());
        ("correct", J.Bool correct);
        ("attempted", J.Int attempted);
        ("failed", J.Int failed);
        ("metrics", J.Obj (List.map (metric_json ~detail:true) metrics));
        ("uncorrected", J.Obj (List.map (fun (k, v) -> (k, J.Float (finite v))) raw));
      ]
  in
  print_endline (detail_prefix ^ J.to_string detail);
  Option.iter (fun path -> J.save path detail) a.out;
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Int attempted);
            ("failed", J.Int failed);
            ("metrics", J.Obj (List.map (metric_json ~detail:false) metrics));
          ]));
  if not correct then exit 1

(* -- all six, one child process each ------------------------------------------- *)

let run_child a (w : Workloads.t) =
  let args =
    [|
      Sys.executable_name;
      "--workload";
      w.name;
      "--seed";
      string_of_int a.seed;
      "--seconds";
      Printf.sprintf "%g" a.seconds;
      "--trace";
      (if a.trace then "1" else "0");
    |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let rec read detail =
    match input_line ic with
    | line when String.starts_with ~prefix:detail_prefix line ->
      let text =
        String.sub line (String.length detail_prefix)
          (String.length line - String.length detail_prefix)
      in
      read (Result.to_option (J.parse text))
    | line ->
      if not (String.starts_with ~prefix:"{" line) then print_endline line;
      read detail
    | exception End_of_file -> detail
  in
  let detail = read None in
  let status = Unix.close_process_in ic in
  (detail, status = Unix.WEXITED 0)

let run_all a =
  let results = List.map (fun w -> (w, run_child a w)) Workloads.all in
  Printf.printf "\n== summary  seed %d  (%s)\n" a.seed (pp_host ());
  let shown = if a.trace then [] else end_to_end in
  Printf.printf "  %-16s %8s %7s" "workload" "attempted" "failed";
  List.iter (fun m -> Printf.printf " %15s" (m.name ^ "[" ^ m.unit_ ^ "]")) shown;
  print_newline ();
  let value detail name =
    Option.bind (J.member "metrics" detail) (fun ms ->
        Option.bind (J.member name ms) (fun m ->
            Option.bind (J.member "value" m) J.to_float_opt))
  in
  let ok =
    List.for_all
      (fun ((w : Workloads.t), (detail, exited_ok)) ->
        match detail with
        | None ->
          Printf.printf "  %-16s no result\n" w.name;
          false
        | Some d ->
          let int k = Option.value (Option.bind (J.member k d) J.to_int_opt) ~default:0 in
          Printf.printf "  %-16s %8d %7d" w.name (int "attempted") (int "failed");
          List.iter
            (fun m ->
              Printf.printf " %15s"
                (match value d m.name with Some v -> Printf.sprintf "%.4g" v | None -> "-"))
            shown;
          print_newline ();
          exited_ok && int "failed" = 0)
      results
  in
  Option.iter
    (fun path ->
      J.save path
        (J.Obj
           [
             ("seed", J.Int a.seed);
             ("seconds", J.Float a.seconds);
             ("host", host_json ());
             ("runs", J.List (List.filter_map (fun (_, (d, _)) -> d) results));
           ]);
      Printf.printf "wrote %s\n" path)
    a.out;
  if not ok then exit 1

(* -- --compare ------------------------------------------------------------------ *)

let load path =
  match J.load path with Ok j -> j | Error e -> die "%s: %s" path e

(* The runs of an --out file: all six workloads, or the one workload a
   --workload run wrote. *)
let runs_of path =
  let j = load path in
  let runs = Option.value (Option.bind (J.member "runs" j) J.to_list_opt) ~default:[ j ] in
  match
    List.filter_map
      (fun r -> Option.map (fun n -> (n, r)) (Option.bind (J.member "workload" r) J.to_string_opt))
      runs
  with
  | [] -> die "%s: no runs (expected a file written by --out)" path
  | named -> named

let compare_runs path_a path_b =
  let a = runs_of path_a and b = runs_of path_b in
  let field run metric key =
    Option.bind (J.member "metrics" run) (fun ms ->
        Option.bind (J.member metric ms) (fun m -> Option.bind (J.member key m) J.to_float_opt))
  in
  Printf.printf "  %-16s %-12s %12s %7s %12s %7s %8s  %s\n" "workload" "metric" "A median"
    "A iqr" "B median" "B iqr" "change" "verdict";
  let verdicts =
    List.concat_map
      (fun (workload, ra) ->
        match List.assoc_opt workload b with
        | None -> []
        | Some rb ->
          List.filter_map
            (fun m ->
              let get run k = field run m.name k in
              match (get ra "value", get rb "value") with
              | Some va, Some vb when va <> 0.0 ->
                let iqr run v =
                  match (get run "q1", get run "q3") with
                  | Some q1, Some q3 when v <> 0.0 -> (q3 -. q1) /. Float.abs v
                  | _ -> 0.0
                in
                let bound = Option.get m.bound in
                let ia = iqr ra va and ib = iqr rb vb in
                let change = (vb -. va) /. Float.abs va in
                let worse = if m.higher_is_better then -.change else change in
                let verdict =
                  if ia > bound || ib > bound then "unresolved"
                  else if worse > bound then "worse"
                  else if worse < -.bound then "better"
                  else "same"
                in
                Printf.printf "  %-16s %-12s %12.5g %6.1f%% %12.5g %6.1f%% %+7.1f%%  %s\n"
                  workload m.name va (100.0 *. ia) vb (100.0 *. ib) (100.0 *. change) verdict;
                Some verdict
              | _ -> None)
            end_to_end)
      a
  in
  if List.exists (fun v -> v = "worse" || v = "unresolved") verdicts then exit 1

(* -- --list ---------------------------------------------------------------------- *)

let print_list ~workloads ~e2e ~layers =
  List.iter (Printf.printf "workload %s\n") workloads;
  List.iter (fun (n, u, b, bound) -> Printf.printf "end_to_end %s %s %s %g\n" n u b bound) e2e;
  List.iter (fun (n, u, b) -> Printf.printf "per_layer %s %s %s\n" n u b) layers

let better m = if m.higher_is_better then "higher" else "lower"

let list_harness () =
  print_list
    ~workloads:(List.map (fun (w : Workloads.t) -> w.name) Workloads.all)
    ~e2e:(List.map (fun m -> (m.name, m.unit_, better m, Option.get m.bound)) end_to_end)
    ~layers:(List.map (fun m -> (m.name, m.unit_, better m)) per_layer)

let list_manifest path =
  let j = load path in
  let items key = Option.value (Option.bind (J.member key j) J.to_list_opt) ~default:[] in
  let str k o = Option.value (Option.bind (J.member k o) J.to_string_opt) ~default:"?" in
  let num k o = Option.value (Option.bind (J.member k o) J.to_float_opt) ~default:Float.nan in
  print_list
    ~workloads:(List.map (str "name") (items "workloads"))
    ~e2e:
      (List.map (fun o -> (str "name" o, str "unit" o, str "better" o, num "bound" o))
         (items "end_to_end"))
    ~layers:(List.map (fun o -> (str "name" o, str "unit" o, str "better" o)) (items "per_layer"))

let () =
  let a = parse_args Sys.argv in
  match (a.compare, a.list, a.workload) with
  | Some (x, y), _, _ -> compare_runs x y
  | None, true, _ -> (
    match a.manifest with Some path -> list_manifest path | None -> list_harness ())
  | None, false, Some name -> (
    match Workloads.find name with
    | Some w -> run_one a w
    | None -> die "unknown workload %S" name)
  | None, false, None -> run_all a
