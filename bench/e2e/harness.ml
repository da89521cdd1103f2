(* Measurement plumbing shared by every workload: the host clock and
   its contention correction, order statistics, the metric registry
   that BENCHMARK.json mirrors, and the span recorder behind the traced
   run. *)

(* -- host clock ---------------------------------------------------------- *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* [timed f] runs [f] and returns its result with the seconds it took. *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, float_of_int (now_ns () - t0) /. 1e9)

(* -- order statistics ----------------------------------------------------

   Linear interpolation between closest ranks (Python's
   statistics.quantiles with method="inclusive"). *)

let quantile samples q =
  match samples with
  | [] -> Float.nan
  | _ ->
    let a = Array.of_list samples in
    Array.sort Float.compare a;
    let pos = q *. float_of_int (Array.length a - 1) in
    let lo = int_of_float pos in
    let hi = Stdlib.min (lo + 1) (Array.length a - 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median samples = quantile samples 0.5

(* A metric as measured within one run: the median over its samples and
   the quartiles that bound its spread. *)
type stat = { value : float; q1 : float; q3 : float; samples : float list }

let stat_of samples =
  { value = median samples; q1 = quantile samples 0.25; q3 = quantile samples 0.75; samples }

(* -- host-contention correction --------------------------------------------

   The host shares its last-level cache and memory bandwidth with other
   tenants, whose load moves our timings by 10-50 % over seconds to
   minutes. Every timed round therefore also times a fixed kernel of its
   own (sequential reads of an 8 MiB off-heap buffer: past the 2 MiB L2,
   inside the shared L3) at its start, between operations at least
   every [cal_interval_ns], and at its end, outside the timed interval.
   The round's host time is scaled by [speed_factor] of the kernel's
   median time in that round, so a neighbour burst that slows both
   cancels out.

   The kernel streams from the shared cache, so neighbours slow it more
   than they slow the workloads: on the reference host, a round's time
   grew as the 0.39th to 0.64th power of the kernel's time (least
   squares on log times, per workload, over 20 to 60 rounds while the
   kernel's time ranged over 2.2 to 6.6 ms). Hence the exponent
   [cal_elasticity].

   The kernel's first two passes bring the buffer back into cache after
   the workload has pushed part of it out, and wait out the write-backs
   of what the workload left dirty; they are not timed, only the three
   passes after them are. Streaming or randomly writing 256 MiB just
   before the kernel moved its time by at most 1.2 % this way (by 38 %
   when the first pass was timed), so the kernel's time depends on the host,
   not on how much memory the workload just touched. *)

let cal_words = 1 lsl 20
let cal_buffer = Bigarray.Array1.init Bigarray.int Bigarray.c_layout cal_words Fun.id
let cal_buffer_mb = float_of_int (cal_words * 8) /. 1048576.0

(* The kernel's time on an idle host of the reference kind (2-core Xeon
   VM, 2 MiB L2 per core, shared L3). *)
let nominal_cal_ns = 2_200_000.0
let cal_elasticity = 0.6
let cal_interval_ns = 50_000_000

(* How much faster the host ran than at the nominal kernel time, for
   work like the workloads', given a kernel time in ns. *)
let speed_factor cal_ns = (nominal_cal_ns /. cal_ns) ** cal_elasticity

let cal_pass () =
  let s = ref 0 in
  for i = 0 to cal_words - 1 do
    s := !s + Bigarray.Array1.unsafe_get cal_buffer i
  done;
  ignore (Sys.opaque_identity !s)

let calibrate () =
  cal_pass ();
  cal_pass ();
  let t0 = now_ns () in
  for _ = 1 to 3 do
    cal_pass ()
  done;
  now_ns () - t0

type round_clock = {
  mutable excluded : int;  (** ns spent in [untimed] during the round *)
  mutable cals : int list;  (** kernel times of the round, ns *)
  mutable last_cal : int;
}

let clock = { excluded = 0; cals = []; last_cal = 0 }

(* Work inside a round that is not part of what the round measures:
   output checks, and the calibration kernel itself. *)
let untimed f =
  let t0 = now_ns () in
  Fun.protect f ~finally:(fun () -> clock.excluded <- clock.excluded + (now_ns () - t0))

(* Called by a round between two operations. *)
let calibration_point () =
  if now_ns () - clock.last_cal >= cal_interval_ns then
    untimed (fun () ->
        clock.cals <- calibrate () :: clock.cals;
        clock.last_cal <- now_ns ())

type timing = {
  seconds : float;  (** host seconds of the round's own work *)
  normalised : float;  (** [seconds] at the nominal kernel speed *)
  cal_ms : float;  (** the round's median kernel time *)
}

let timed_round f =
  clock.cals <- [ calibrate () ];
  clock.excluded <- 0;
  let t0 = now_ns () in
  clock.last_cal <- t0;
  let r = f () in
  let seconds = float_of_int (now_ns () - t0 - clock.excluded) /. 1e9 in
  clock.cals <- calibrate () :: clock.cals;
  let cal = median (List.map float_of_int clock.cals) in
  (r, { seconds; normalised = seconds *. speed_factor cal; cal_ms = cal /. 1e6 })

(* -- metric registry ------------------------------------------------------

   The single source of the names, units, directions and bounds that
   BENCHMARK.json declares; the runtest rule in this directory diffs
   [--list] against the manifest so the two cannot drift. *)

type metric = {
  name : string;
  unit_ : string;
  higher_is_better : bool;
  bound : float option;  (** end-to-end metrics only *)
}

let e2e name unit_ ~higher bound = { name; unit_; higher_is_better = higher; bound = Some bound }
let layer name unit_ ~higher = { name; unit_; higher_is_better = higher; bound = None }

let end_to_end =
  [
    e2e "setup_s" "s" ~higher:false 0.25;
    e2e "ops_per_s" "1/s" ~higher:true 0.2;
    e2e "peak_rss_mb" "MB" ~higher:false 0.25;
  ]

let per_layer =
  [
    layer "telemetry.sink_overhead" "ratio" ~higher:false;
    layer "replay.explained_share" "ratio" ~higher:true;
    layer "jpeg2000.parse_ns_per_byte" "ns/B" ~higher:false;
    layer "jpeg2000.t1_jobs" "count" ~higher:false;
    layer "jpeg2000.coded_bytes" "count" ~higher:false;
    layer "jpeg2000.t1_ns_per_coded_byte" "ns/B" ~higher:false;
    layer "jpeg2000.finish_ns_per_sample" "ns/sample" ~higher:false;
    layer "jpeg2000.assemble_ns_per_sample" "ns/sample" ~higher:false;
    layer "jpeg2000.t1_share" "ratio" ~higher:false;
    layer "jpeg2000.finish_share" "ratio" ~higher:false;
    layer "fig1.entropy_share" "ratio" ~higher:false;
    layer "fig1.iq_share" "ratio" ~higher:false;
    layer "fig1.idwt_share" "ratio" ~higher:false;
    layer "fig1.ict_dc_share" "ratio" ~higher:false;
    layer "par.speedup_jobs2" "ratio" ~higher:true;
    layer "par.map_jobs" "count" ~higher:false;
    layer "par.steals" "count" ~higher:true;
    layer "serve.cache_hit_ratio" "ratio" ~higher:true;
    layer "serve.cache_evictions" "count" ~higher:false;
    layer "serve.batches" "count" ~higher:false;
    layer "serve.coalesced" "count" ~higher:true;
    layer "serve.batch_requests_mean" "requests" ~higher:true;
    layer "serve.flushed" "count" ~higher:false;
    layer "serve.chunks_lost" "count" ~higher:false;
    layer "serve.cache_find_ns" "ns/lookup" ~higher:false;
    layer "serve.cache_add_ns" "ns/insert" ~higher:false;
    layer "serve.replay_hit_ratio" "ratio" ~higher:true;
    layer "serve.assemble_ns_per_sample" "ns/sample" ~higher:false;
    layer "serve.digest_ns_per_sample" "ns/sample" ~higher:false;
    layer "serve.arrivals_us_per_request" "us/request" ~higher:false;
    layer "serve.ingest_analyse_us_per_request" "us/request" ~higher:false;
    layer "serve.flush_decode_ms_per_flush" "ms/flush" ~higher:false;
    layer "serve.sim_queue_ms" "sim_ms/request" ~higher:false;
    layer "serve.sim_exec_ms" "sim_ms/request" ~higher:false;
    layer "serve.sim_p99_ms" "sim_ms" ~higher:false;
    layer "serve.sim_slo_miss_rate" "ratio" ~higher:false;
    layer "fleet.l1_hit_ratio" "ratio" ~higher:true;
    layer "fleet.l2_hit_ratio" "ratio" ~higher:true;
    layer "fleet.l2_evictions" "count" ~higher:false;
    layer "fleet.l2_transfers" "count" ~higher:false;
    layer "fleet.spilled" "count" ~higher:false;
    layer "fleet.busy_imbalance" "ratio" ~higher:false;
    layer "fleet.ring_owner_ns" "ns/lookup" ~higher:false;
    layer "fleet.tier_find_ns" "ns/lookup" ~higher:false;
    layer "models.table1_ms" "ms/regen" ~higher:false;
    layer "models.app_layer_ms" "ms/regen" ~higher:false;
    layer "models.vta_layer_ms" "ms/regen" ~higher:false;
    layer "sim.wakeups" "count" ~higher:false;
    layer "sim.ns_per_wakeup" "ns/wakeup" ~higher:false;
    layer "osss.bus_transactions" "count" ~higher:false;
    layer "osss.bus_words" "count" ~higher:false;
    layer "osss.channel_frames" "count" ~higher:false;
    layer "fossy.synth_ms.idwt53" "ms/call" ~higher:false;
    layer "fossy.synth_ms.idwt97" "ms/call" ~higher:false;
    layer "fossy.optimise_ms" "ms/call" ~higher:false;
  ]

let find_metric name =
  List.find_opt (fun m -> String.equal m.name name) (end_to_end @ per_layer)

(* -- spans ----------------------------------------------------------------

   The traced replay wraps every call into a layer's public functions in
   one span: name, start and end in host nanoseconds, parent, and the
   request or image it serves. Spans stay in memory until the run ends;
   per-name totals are kept as they close, so layer metrics need no
   second pass. *)

type span = {
  sp_name : string;
  sp_start : int;
  sp_end : int;
  sp_parent : string;
  sp_id : int;
  sp_self : int;  (** the span minus its children, ns *)
}

type frame = { f_name : string; f_start : int; mutable f_child : int }

let recorded : span list ref = ref []
let stack : frame list ref = ref []
let totals : (string, int * int) Hashtbl.t = Hashtbl.create 32 (* name -> ns, count *)

let reset_spans () =
  recorded := [];
  stack := [];
  Hashtbl.reset totals

let span ?(id = -1) name f =
  let frame = { f_name = name; f_start = now_ns (); f_child = 0 } in
  stack := frame :: !stack;
  let close () =
    let stop = now_ns () in
    let dur = stop - frame.f_start in
    stack := List.tl !stack;
    let parent =
      match !stack with
      | p :: _ ->
        p.f_child <- p.f_child + dur;
        p.f_name
      | [] -> ""
    in
    recorded :=
      {
        sp_name = name;
        sp_start = frame.f_start;
        sp_end = stop;
        sp_parent = parent;
        sp_id = id;
        sp_self = dur - frame.f_child;
      }
      :: !recorded;
    let t, c = Option.value (Hashtbl.find_opt totals name) ~default:(0, 0) in
    Hashtbl.replace totals name (t + dur, c + 1)
  in
  Fun.protect ~finally:close f

let total_ns name = match Hashtbl.find_opt totals name with Some (t, _) -> t | None -> 0
let span_count name = match Hashtbl.find_opt totals name with Some (_, c) -> c | None -> 0

(* Mean ns of the [name] spans per unit of work, or 0 when the replay
   did no such work. *)
let ns_per name units =
  if units <= 0 then 0.0 else float_of_int (total_ns name) /. float_of_int units

(* Chrome trace-event JSON through Telemetry.Chrome: its events carry
   picoseconds, so host nanoseconds are scaled by 1000 and the trace
   timeline reads in host microseconds. *)
let write_trace path =
  let t0 = List.fold_left (fun acc s -> Stdlib.min acc s.sp_start) max_int !recorded in
  let events =
    List.rev_map
      (fun s ->
        {
          Telemetry.Event.ts_ps = (s.sp_start - t0) * 1000;
          track = "replay";
          name = s.sp_name;
          cat = "host";
          phase = Telemetry.Event.Complete ((s.sp_end - s.sp_start) * 1000);
          args =
            [
              ("parent", Telemetry.Event.Str s.sp_parent);
              ("id", Telemetry.Event.Int s.sp_id);
              ("self_us", Telemetry.Event.Float (float_of_int s.sp_self /. 1e3));
            ];
        })
      !recorded
  in
  Telemetry.Chrome.save path events

(* -- process facts --------------------------------------------------------- *)

(* Collects what set-up and verification left behind, then restarts the
   peak resident set (VmHWM) from the current resident set, so that the
   next [peak_rss_mb] covers only what runs after this call. Returns
   false where procfs does not allow the reset. *)
let reset_peak_rss () =
  Gc.compact ();
  try
    let oc = open_out "/proc/self/clear_refs" in
    output_string oc "5";
    close_out oc;
    true
  with Sys_error _ -> false

(* Peak resident set (VmHWM) of this process in MiB, from procfs, less
   the calibration buffer, which is resident from start-up. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb ->
          (float_of_int kb /. 1024.0) -. cal_buffer_mb)
    | _ -> scan ()
    | exception End_of_file -> Float.nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* The checked-out revision, read from .git without running git (the
   benchmark may run from a tree that is not a repository). *)
let git_rev () =
  let read path =
    try
      let ic = open_in path in
      Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Some (input_line ic))
    with Sys_error _ | End_of_file -> None
  in
  match read ".git/HEAD" with
  | Some head when String.starts_with ~prefix:"ref: " head -> (
    let ref_ = String.sub head 5 (String.length head - 5) in
    match read (Filename.concat ".git" ref_) with Some rev -> rev | None -> "unknown")
  | Some rev -> rev
  | None -> "unknown"
