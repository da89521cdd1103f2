type overload = Reject | Drop_oldest | Degrade

let overload_of_string = function
  | "reject" -> Ok Reject
  | "drop-oldest" -> Ok Drop_oldest
  | "degrade" -> Ok Degrade
  | other ->
    Error
      (Printf.sprintf
         "unknown overload policy %S (use reject, drop-oldest or degrade)" other)

let overload_to_string = function
  | Reject -> "reject"
  | Drop_oldest -> "drop-oldest"
  | Degrade -> "degrade"

type config = {
  queue_capacity : int;
  overload : overload;
  cache_capacity : int;
  max_batch : int;
  ingest : Faults.Ingest.spec option;
      (** [Some spec]: request bytes arrive as a seeded, possibly
          faulted chunk schedule; a request only becomes runnable
          once the tiles it needs have landed, and one that stalls
          past its deadline is flushed best-effort. [None]: streams
          are complete on arrival (the historical behaviour). *)
}

let default_config =
  {
    queue_capacity = 32;
    overload = Reject;
    cache_capacity = 128;
    max_batch = 8;
    ingest = None;
  }

type stream = {
  s_digest : int64;
  s_length : int;
  s_header : Jpeg2000.Codestream.header;
  s_tiles : Jpeg2000.Codestream.tile_segment array;
  s_reference : Jpeg2000.Image.t Lazy.t;
      (* clean full decode; the psnr_impact baseline for flushes *)
  s_layout : Ingest.layout Lazy.t;
      (* tile-segment end offsets; read once, only by an ingest run *)
}

type t = { config : config; streams : stream array }

let create ?(config = default_config) corpus =
  if Array.length corpus = 0 then invalid_arg "Serve.Service.create: no streams";
  if config.queue_capacity < 1 then
    invalid_arg "Serve.Service.create: queue_capacity < 1";
  if config.max_batch < 1 then invalid_arg "Serve.Service.create: max_batch < 1";
  if config.cache_capacity < 0 then
    invalid_arg "Serve.Service.create: cache_capacity < 0";
  let streams =
    Array.mapi
      (fun i data ->
        match Jpeg2000.Codestream.parse_result data with
        | Error e ->
          invalid_arg
            (Printf.sprintf "Serve.Service.create: stream %d: %s" i
               (Jpeg2000.Codestream.error_message e))
        | Ok stream ->
          {
            s_digest = Cache.digest data;
            s_length = String.length data;
            s_header = stream.Jpeg2000.Codestream.header;
            s_tiles = Array.of_list stream.Jpeg2000.Codestream.tiles;
            s_reference = lazy (Jpeg2000.Decoder.decode data);
            s_layout = lazy (Ingest.layout data);
          })
      corpus
  in
  { config; streams }

let stream_count t = Array.length t.streams

(* -- the virtual-time cost model -------------------------------------
   Calibrated against the repository's own microbenchmarks (bench
   t1_block_32x32, dwt53_128x128): an entropy-decoded code block costs
   on the order of a microsecond, reconstruction tens of nanoseconds
   per sample. The absolute values matter less than their being fixed:
   every service-time in the report derives from these constants and
   deterministic work counts only. *)

let ps_per_batch = 2_000_000 (* dispatch overhead per batch: 2 us *)
let ps_per_block = 1_500_000 (* per entropy-decoded code block: 1.5 us *)
let ps_per_coded_byte = 45_000 (* per entropy-coded byte: 45 ns *)
let ps_per_sample = 18_000 (* IQ+IDWT+ICT+shift per sample: 18 ns *)
let ps_per_hit = 400_000 (* per cache-served tile: 0.4 us *)
let ps_per_out_sample = 2_000 (* assembly/crop per output sample: 2 ns *)

let ps_of_ms f = int_of_float ((f *. 1e9) +. 0.5)
let ms_of_ps ps = float_of_int ps /. 1e9

(* -- latency / pixel accounting -------------------------------------- *)

type latency = {
  mean_ms : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  max_ms : float;
}

let zero_latency =
  { mean_ms = 0.0; p50_ms = 0.0; p95_ms = 0.0; p99_ms = 0.0; max_ms = 0.0 }

(* Nearest-rank percentile over the exact latency population — no
   interpolation, so the value is one of the observed latencies and
   the report stays bit-stable. *)
let latency_of samples_ps =
  match samples_ps with
  | [] -> zero_latency
  | _ ->
    let arr = Array.of_list samples_ps in
    Array.sort Int.compare arr;
    let n = Array.length arr in
    let rank q =
      let i = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
      arr.(Stdlib.max 0 (Stdlib.min (n - 1) i))
    in
    let sum = Array.fold_left ( + ) 0 arr in
    {
      mean_ms = ms_of_ps sum /. float_of_int n;
      p50_ms = ms_of_ps (rank 0.50);
      p95_ms = ms_of_ps (rank 0.95);
      p99_ms = ms_of_ps (rank 0.99);
      max_ms = ms_of_ps arr.(n - 1);
    }

let latency_json l =
  let open Telemetry.Json in
  Obj
    [
      ("mean", Float l.mean_ms);
      ("p50", Float l.p50_ms);
      ("p95", Float l.p95_ms);
      ("p99", Float l.p99_ms);
      ("max", Float l.max_ms);
    ]

let pp_latency ppf l =
  Format.fprintf ppf
    "latency [ms]:    mean %.3f  p50 %.3f  p95 %.3f  p99 %.3f  max %.3f@,"
    l.mean_ms l.p50_ms l.p95_ms l.p99_ms l.max_ms

let fnv_prime = 0x100000001b3L

let fnv_int h v =
  let h = Int64.mul (Int64.logxor h (Int64.of_int v)) fnv_prime in
  h

(* A plane's sample [i] is the native-endian 16-bit word at byte
   [2 * i] of its store (image.mli); the primitive reads it with one
   load, where a call to [Image.plane_get] per sample would not be
   inlined across the module boundary. *)
external sample16 : Bytes.t -> int -> int = "%caml_bytes_get16u"

(* Nested loops over a local ref: the compiler keeps [h] unboxed, where
   a ref captured by an iteration closure boxes an [Int64] per sample.
   The samples are folded as values, in row-major order per plane. *)
let fnv_image h (image : Jpeg2000.Image.t) =
  let h = ref h in
  let planes = image.Jpeg2000.Image.planes in
  for c = 0 to Array.length planes - 1 do
    let p = planes.(c) in
    let n = p.Jpeg2000.Image.width * p.Jpeg2000.Image.height in
    let data = p.Jpeg2000.Image.data in
    if Bytes.length data < 2 * n then invalid_arg "Service.fnv_image: plane";
    h := fnv_int (fnv_int !h p.Jpeg2000.Image.width) p.Jpeg2000.Image.height;
    for i = 0 to n - 1 do
      h := fnv_int !h (sample16 data (2 * i))
    done
  done;
  !h

(* -- report ----------------------------------------------------------- *)

type ingest_stats = {
  ing_spec : string;
  ing_chunks_sent : int;
  ing_chunks_lost : int;
  ing_chunks_duped : int;
  ing_chunks_reordered : int;
  ing_stall_ms : float;
  ing_bytes : int;
  ing_flushed : int;
  ing_flush_failed : int;
  ing_flush_concealed_blocks : int;
  ing_flush_concealed_tiles : int;
  ing_flush_psnr_db : float;
      (* worst psnr_impact across flushes; infinity when no flush
         produced a damaged image *)
}

type report = {
  workload : string;
  streams : int;
  policy : string;
  queue_capacity : int;
  cache_capacity : int;
  max_batch : int;
  total : int;
  served : int;
  rejected : int;
  dropped : int;
  degraded : int;
  batches : int;
  coalesced : int;
  concealed_blocks : int;
  makespan_ms : float;
  throughput_rps : float;
  latency : latency;
  slo_misses : int;
  slo_miss_rate : float;
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  cache_hit_rate : float;
  ingest : ingest_stats option;
  pixels_digest : string;
}

(* -- request expansion ------------------------------------------------ *)

(* The (tile, resolution) cache keys a request resolves to. A region
   expands to the full-resolution tiles its window intersects; the
   crop itself is not cached (it is orders of magnitude cheaper than
   the entropy decode the cache skips). *)
let needed_keys stream req_target =
  let key tile discard =
    {
      Cache.digest = stream.s_digest;
      length = stream.s_length;
      tile;
      discard;
    }
  in
  match req_target with
  | Request.Full ->
    Array.to_list (Array.mapi (fun i _ -> (i, key i 0)) stream.s_tiles)
  | Request.Reduced { discard } ->
    Array.to_list (Array.mapi (fun i _ -> (i, key i discard)) stream.s_tiles)
  | Request.Region { rx; ry; rw; rh } ->
    let intersects (seg : Jpeg2000.Codestream.tile_segment) =
      seg.Jpeg2000.Codestream.tile_x0 < rx + rw
      && seg.Jpeg2000.Codestream.tile_x0 + seg.Jpeg2000.Codestream.tile_w > rx
      && seg.Jpeg2000.Codestream.tile_y0 < ry + rh
      && seg.Jpeg2000.Codestream.tile_y0 + seg.Jpeg2000.Codestream.tile_h > ry
    in
    List.filter_map
      (fun (i, seg) -> if intersects seg then Some (i, key i 0) else None)
      (Array.to_list (Array.mapi (fun i seg -> (i, seg)) stream.s_tiles))

let output_dims stream = function
  | Request.Full ->
    ( stream.s_header.Jpeg2000.Codestream.width,
      stream.s_header.Jpeg2000.Codestream.height )
  | Request.Region { rw; rh; _ } -> (rw, rh)
  | Request.Reduced { discard } ->
    ( Jpeg2000.Decoder.reduced_size stream.s_header.Jpeg2000.Codestream.width
        discard,
      Jpeg2000.Decoder.reduced_size stream.s_header.Jpeg2000.Codestream.height
        discard )

let assemble stream target tiles =
  let header = stream.s_header in
  let width, height = output_dims stream target in
  let x, y =
    match target with
    | Request.Region { rx; ry; _ } -> (rx, ry)
    | Request.Full | Request.Reduced _ -> (0, 0)
  in
  Jpeg2000.Tile.assemble_region ~x ~y ~width ~height
    ~components:header.Jpeg2000.Codestream.components
    ~bit_depth:header.Jpeg2000.Codestream.bit_depth tiles

(* Largest degrade level the stream supports: the tile grid must stay
   aligned, and the search starts one level short of [levels]. A
   decode at [discard = levels] works (it keeps only LL), but the
   golden reports pin the degrade targets this bound picks. *)
let max_discard stream =
  let header = stream.s_header in
  let aligned d =
    header.Jpeg2000.Codestream.tile_w mod (1 lsl d) = 0
    && header.Jpeg2000.Codestream.tile_h mod (1 lsl d) = 0
  in
  let rec search d =
    if d < 1 then 0
    else if aligned d then d
    else search (d - 1)
  in
  search (header.Jpeg2000.Codestream.levels - 1)

let degrade_target stream target =
  let cap = max_discard stream in
  match target with
  | Request.Full | Request.Region _ ->
    if cap >= 1 then Some (Request.Reduced { discard = 1 }) else None
  | Request.Reduced { discard } ->
    if discard < cap then Some (Request.Reduced { discard = discard + 1 })
    else None

(* -- workload generation ---------------------------------------------- *)

(* Draw order per request is fixed (stream, target, priority) so a
   spec replays identically no matter how the service interleaves
   generation and completion. *)
let draw_request rng ~id ~nstreams ~streams ~arrival_ps ~deadline_ps spec =
  let stream = if nstreams = 1 then 0 else Faults.Rng.int rng nstreams in
  let s = streams.(stream) in
  let target =
    Request.draw_target rng
      ~width:s.s_header.Jpeg2000.Codestream.width
      ~height:s.s_header.Jpeg2000.Codestream.height
      ~levels:(max_discard s) spec
  in
  let priority = Request.draw_priority rng in
  let trace = Request.trace_id ~seed:spec.Request.seed id in
  { Request.id; trace; stream; target; priority; arrival_ps; deadline_ps }

(* -- accessors ---------------------------------------------------------- *)

let config (t : t) = t.config
let streams (t : t) = t.streams
let stream_digest s = s.s_digest
let stream_header s = s.s_header
let stream_tile s i = s.s_tiles.(i)
let fnv_basis = 0xcbf29ce484222325L

(* The full arrival sequence of an open-loop spec, pre-drawn with the
   RNG discipline every open-loop run uses, sorted by (arrival, id). *)
let open_arrivals (t : t) spec =
  match spec.Request.shape with
  | Request.Closed_loop _ ->
    invalid_arg "Serve.Service.open_arrivals: closed-loop spec"
  | Request.Open_loop { rate_rps } ->
    let nstreams = Array.length t.streams in
    let deadline_rel_ps = ps_of_ms spec.Request.deadline_ms in
    let rng = Faults.Rng.create spec.Request.seed in
    let mean_ms = 1000.0 /. rate_rps in
    let arrival = ref 0 in
    let out = ref [] in
    for id = 0 to spec.Request.n - 1 do
      arrival := !arrival + ps_of_ms (Request.exp_draw rng ~mean:mean_ms);
      out :=
        draw_request rng ~id ~nstreams ~streams:t.streams ~arrival_ps:!arrival
          ~deadline_ps:(!arrival + deadline_rel_ps) spec
        :: !out
    done;
    Array.of_list (List.rev !out)

(* -- the engine ---------------------------------------------------------- *)

module Engine = struct
  type topology = {
    replicas : int;
    min_replicas : int;
    max_replicas : int;
    vnodes : int;
    spill : bool;
    l2 : Tier.t option;
    up_frac : float;
    down_frac : float;
    slo_up : float;
    interval_ps : int;
    warmup_ps : int;
    jitter_seed : int option;
  }

  type tracks = {
    front : string;
    queue : int -> string;
    exec : int -> string;
    sched : int -> string;
  }

  type replica_stat = {
    rs_id : int;
    rs_served : int;
    rs_batches : int;
    rs_busy_ms : float;
  }

  type totals = {
    total : int;
    served : int;
    rejected : int;
    dropped : int;
    degraded : int;
    spilled : int;
    batches : int;
    coalesced : int;
    concealed_blocks : int;
    makespan_ms : float;
    throughput_rps : float;
    latency : latency;
    slo_misses : int;
    slo_miss_rate : float;
    l1 : Lru.stats;
    peak_replicas : int;
    final_replicas : int;
    scale_ups : int;
    scale_downs : int;
    scale_events : (float * string) list;
    per_replica : replica_stat list;
    ingest : ingest_stats option;
  }

  type rstate = Inactive | Warming | Active | Draining

  type queued = {
    q_req : Request.t;
    q_degraded : bool;
    q_ready_ps : int;
        (* instant every tile the request needs has landed on the
           ingest path (= arrival when ingest is off); [max_int] when
           the faulted delivery never completes them *)
  }

  type replica = {
    r_id : int;
    r_queue_track : string;
    r_exec_track : string;
    r_sched_track : string;
    mutable r_state : rstate;
    mutable r_ready_ps : int;  (* warm-up completion when [Warming] *)
    mutable r_queue : queued list;  (* unsorted; EDF-sorted at dispatch *)
    mutable r_l1 : Cache.t option;
    mutable r_busy_until : int;
    mutable r_served : int;
    mutable r_batches : int;
    mutable r_busy_ps : int;
    mutable r_activated : bool;  (* ever joined the ring *)
  }

  let edf_compare a b =
    let a = a.q_req and b = b.q_req in
    let c = Int.compare a.Request.deadline_ps b.Request.deadline_ps in
    if c <> 0 then c
    else
      let c = Int.compare a.Request.priority b.Request.priority in
      if c <> 0 then c else Int.compare a.Request.id b.Request.id

  let earlier (a : Request.t) (b : Request.t) =
    a.Request.arrival_ps < b.Request.arrival_ps
    || a.Request.arrival_ps = b.Request.arrival_ps
       && a.Request.id < b.Request.id

  (* Every span and instant about a request carries (id, trace); the
     trace id is a pure hash of (seed, id), so a histogram exemplar or
     a span arg resolves to the same request on any rerun. *)
  let trace_args (r : Request.t) =
    [
      ("id", Telemetry.Event.Int r.Request.id);
      ("trace", Telemetry.Event.Str (Request.trace_to_string r.Request.trace));
    ]

  (* T1 attribution per code-block class, priced by the same constants
     as the request's entropy stage — a deterministic counter family
     the profiler grafts in as a synthetic track. *)
  let attribute_t1 st =
    List.iter
      (fun (cls, blocks, bytes) ->
        Telemetry.Sink.incr ~by:blocks ("t1.class." ^ cls ^ ".blocks");
        Telemetry.Sink.incr
          ~by:((ps_per_block * blocks) + (ps_per_coded_byte * bytes))
          ("t1.class." ^ cls ^ ".ps"))
      (Jpeg2000.Decoder.staged_block_classes st)

  let run ?(pool = Par.Pool.sequential) ~on_served topo tracks (t : t) spec =
    let config = t.config in
    let nstreams = Array.length t.streams in
    let deadline_rel_ps = ps_of_ms spec.Request.deadline_ms in
    (* Per-request faulted deliveries. The ingest seed is a pure hash of
       (workload seed, request id), so the workload RNG draws are
       untouched by ingest settings and the whole timeline is fixed the
       moment the request is drawn — no I/O events to simulate. *)
    let deliveries : (int, Ingest.t) Hashtbl.t = Hashtbl.create 64 in
    let delivery_for (r : Request.t) =
      match Hashtbl.find_opt deliveries r.Request.id with
      | Some d -> d
      | None ->
        let ing = Option.get config.ingest in
        let stream = t.streams.(r.Request.stream) in
        let seed =
          Int64.to_int
            (Int64.logand
               (Faults.Rng.hash64
                  (Int64.of_int spec.Request.seed)
                  (Int64.of_int r.Request.id))
               Int64.max_int)
        in
        let d =
          Ingest.analyse_layout ~seed ing ~start_ps:r.Request.arrival_ps
            (Lazy.force stream.s_layout)
        in
        Hashtbl.replace deliveries r.Request.id d;
        d
    in
    (* Instant every tile the request resolves to has landed. *)
    let ready_ps (r : Request.t) =
      match config.ingest with
      | None -> r.Request.arrival_ps
      | Some _ ->
        let d = delivery_for r in
        let stream = t.streams.(r.Request.stream) in
        List.fold_left
          (fun acc (tile_index, _) ->
            Stdlib.max acc (Ingest.tile_landed_ps d tile_index))
          r.Request.arrival_ps
          (needed_keys stream r.Request.target)
    in
    (* Instant a queued request may leave its queue: when its bytes are
       ready, or at its deadline — whichever comes first — so a stalled
       stream is flushed rather than waited out. *)
    let dispatch_ps q = Stdlib.min q.q_ready_ps q.q_req.Request.deadline_ps in
    (* Generated-but-not-admitted requests, sorted by (arrival, id): an
       open-loop spec is drawn whole; a closed loop draws one request
       per client now and each next one when its predecessor leaves. *)
    let pending =
      ref
        (match spec.Request.shape with
        | Request.Open_loop _ -> Array.to_list (open_arrivals t spec)
        | Request.Closed_loop _ -> [])
    in
    let insert_pending r =
      let rec ins = function
        | [] -> [ r ]
        | x :: rest -> if earlier x r then x :: ins rest else r :: x :: rest
      in
      pending := ins !pending
    in
    let next_id = ref 0 in
    (* Closed-loop state: one child RNG and a remaining quota per
       client; requests map back to their client for think-time
       chaining. *)
    let client_of_request = Hashtbl.create 64 in
    let clients_rng, clients_left, think_ms =
      match spec.Request.shape with
      | Request.Open_loop _ -> ([||], [||], 0.0)
      | Request.Closed_loop { clients; think_ms } ->
        let master = Faults.Rng.create spec.Request.seed in
        let rngs = Array.init clients (fun _ -> Faults.Rng.split master) in
        let base = spec.Request.n / clients
        and extra = spec.Request.n mod clients in
        let left = Array.init clients (fun c -> base + if c < extra then 1 else 0) in
        (rngs, left, think_ms)
    in
    let generate_client_request c ~not_before =
      if clients_left.(c) > 0 then begin
        clients_left.(c) <- clients_left.(c) - 1;
        let rng = clients_rng.(c) in
        let arrival_ps =
          not_before + ps_of_ms (Request.exp_draw rng ~mean:think_ms)
        in
        let id = !next_id in
        incr next_id;
        let r =
          draw_request rng ~id ~nstreams ~streams:t.streams ~arrival_ps
            ~deadline_ps:(arrival_ps + deadline_rel_ps) spec
        in
        Hashtbl.replace client_of_request id c;
        insert_pending r
      end
    in
    Array.iteri
      (fun c _ -> generate_client_request c ~not_before:0)
      clients_left;
    (* closed loop: a client thinks, then issues its next request *)
    let chain (r : Request.t) ~not_before =
      match Hashtbl.find_opt client_of_request r.Request.id with
      | Some c -> generate_client_request c ~not_before
      | None -> ()
    in
    let fresh_l1 () =
      if config.cache_capacity > 0 then
        Some (Cache.create ~capacity:config.cache_capacity)
      else None
    in
    let reps =
      Array.init topo.max_replicas (fun i ->
          let up = i < topo.replicas in
          {
            r_id = i;
            r_queue_track = tracks.queue i;
            r_exec_track = tracks.exec i;
            r_sched_track = tracks.sched i;
            r_state = (if up then Active else Inactive);
            r_ready_ps = 0;
            r_queue = [];
            r_l1 = (if up then fresh_l1 () else None);
            r_busy_until = 0;
            r_served = 0;
            r_batches = 0;
            r_busy_ps = 0;
            r_activated = up;
          })
    in
    let ring =
      ref (Ring.create ~vnodes:topo.vnodes (List.init topo.replicas Fun.id))
    in
    let now = ref 0 in
    let total = ref 0
    and served = ref 0
    and rejected = ref 0
    and dropped = ref 0
    and degraded = ref 0
    and spilled = ref 0
    and batches = ref 0
    and coalesced = ref 0
    and concealed = ref 0
    and slo_late = ref 0 in
    let flushed = ref 0
    and flush_failed = ref 0
    and flush_concealed_blocks = ref 0
    and flush_concealed_tiles = ref 0 in
    let flush_psnr = ref Float.infinity in
    let ing_sent = ref 0
    and ing_lost = ref 0
    and ing_duped = ref 0
    and ing_reordered = ref 0
    and ing_stall_ps = ref 0
    and ing_bytes = ref 0 in
    let latencies = ref [] in
    let makespan = ref 0 in
    let scale_ups = ref 0 and scale_downs = ref 0 in
    let scale_events = ref [] in
    let peak = ref topo.replicas in
    let l1h = ref 0 and l1m = ref 0 and l1i = ref 0 and l1e = ref 0 in
    let fold_l1 rep =
      match rep.r_l1 with
      | None -> ()
      | Some c ->
        let s = Cache.stats c in
        l1h := !l1h + s.Lru.hits;
        l1m := !l1m + s.Lru.misses;
        l1i := !l1i + s.Lru.insertions;
        l1e := !l1e + s.Lru.evictions
    in
    let window_events = ref 0 and window_missed = ref 0 in
    let autoscale = topo.min_replicas <> topo.max_replicas in
    let next_eval = ref topo.interval_ps in
    let depth rep = List.length rep.r_queue in
    let active_count () =
      Array.fold_left (fun n r -> if r.r_state = Active then n + 1 else n) 0 reps
    in
    let emit_depth rep =
      Telemetry.Span.counter ~ts_ps:!now ~track:rep.r_queue_track "queue_depth"
        (depth rep)
    in
    (* Per-replica dispatch jitter: a deterministic sub-microsecond
       perturbation of the batch overhead, a pure hash of (seed,
       replica, batch ordinal), so the replicas' virtual clocks drift
       apart the way independent machines' would without threatening
       replay stability. *)
    let jitter rep =
      match topo.jitter_seed with
      | None -> 0
      | Some seed ->
        Int64.to_int
          (Int64.logand
             (Faults.Rng.hash64
                (Faults.Rng.hash64 (Int64.of_int seed)
                   (Int64.of_int (rep.r_id + 1)))
                (Int64.of_int (rep.r_batches + 1)))
             0x3FFFFL)
    in
    let oldest queue =
      List.fold_left
        (fun acc q ->
          match acc with
          | Some b when not (earlier q.q_req b.q_req) -> acc
          | _ -> Some q)
        None queue
    in
    (* Fold a request's delivery counters into the totals exactly once,
       at dispatch, and close its ingest span. *)
    let note_ingest q ~end_ps =
      match config.ingest with
      | None -> ()
      | Some _ ->
        let r = q.q_req in
        let arr = delivery_for r in
        let d = Ingest.delivery arr in
        ing_sent := !ing_sent + d.Faults.Ingest.sent;
        ing_lost := !ing_lost + d.Faults.Ingest.lost;
        ing_duped := !ing_duped + d.Faults.Ingest.duped;
        ing_reordered := !ing_reordered + d.Faults.Ingest.reordered;
        ing_stall_ps := !ing_stall_ps + d.Faults.Ingest.stall_ps;
        ing_bytes := !ing_bytes + Ingest.bytes_received arr;
        Telemetry.Sink.incr ~by:d.Faults.Ingest.sent "serve.ingest.chunks";
        Telemetry.Sink.incr ~by:d.Faults.Ingest.lost "serve.ingest.lost";
        Telemetry.Sink.incr ~by:(Ingest.bytes_received arr) "serve.ingest.bytes";
        Telemetry.Span.complete ~ts_ps:r.Request.arrival_ps
          ~dur_ps:(Stdlib.max 0 (end_ps - r.Request.arrival_ps))
          ~track:"serve.ingest" ~cat:"ingest"
          ~args:
            (trace_args r
            @ [
                ("chunks", Telemetry.Event.Int d.Faults.Ingest.sent);
                ("lost", Telemetry.Event.Int d.Faults.Ingest.lost);
              ])
          "ingest"
    in
    (* Front-end admission at the arrival instant: route to the ring
       owner; above half capacity [Degrade] rewrites the request to a
       lower resolution; a full owner spills along the successor list
       (when [spill] is on); only when no replica can take the request
       does the policy shed it. *)
    let admit (r : Request.t) =
      incr total;
      Telemetry.Sink.incr "serve.arrivals";
      let stream = t.streams.(r.Request.stream) in
      let owner_id = Option.get (Ring.owner !ring stream.s_digest) in
      let owner = reps.(owner_id) in
      let r, was_degraded =
        if
          config.overload = Degrade
          && depth owner >= Stdlib.max 1 (config.queue_capacity / 2)
        then
          match degrade_target stream r.Request.target with
          | Some target -> ({ r with Request.target }, true)
          | None -> (r, false)
        else (r, false)
      in
      if was_degraded then begin
        incr degraded;
        Telemetry.Sink.incr "serve.degraded";
        Telemetry.Span.instant ~ts_ps:!now ~track:tracks.front ~cat:"overload"
          ~args:(trace_args r) "degrade"
      end;
      let enqueue rep =
        rep.r_queue <-
          { q_req = r; q_degraded = was_degraded; q_ready_ps = ready_ps r }
          :: rep.r_queue;
        emit_depth rep
      in
      if depth owner < config.queue_capacity then enqueue owner
      else
        let spill_to =
          if not topo.spill then None
          else
            match Ring.successors !ring stream.s_digest with
            | _ :: rest ->
              List.find_opt
                (fun i -> depth reps.(i) < config.queue_capacity)
                rest
            | [] -> None
        in
        match spill_to with
        | Some i ->
          incr spilled;
          Telemetry.Sink.incr "serve.spilled";
          Telemetry.Span.instant ~ts_ps:!now ~track:tracks.front ~cat:"route"
            ~args:
              (trace_args r
              @ [
                  ("owner", Telemetry.Event.Int owner_id);
                  ("to", Telemetry.Event.Int i);
                ])
            "spill";
          enqueue reps.(i)
        | None -> (
          incr window_events;
          incr window_missed;
          match config.overload with
          | Drop_oldest ->
            let victim = Option.get (oldest owner.r_queue) in
            owner.r_queue <- List.filter (fun q -> q != victim) owner.r_queue;
            incr dropped;
            Telemetry.Sink.incr "serve.dropped";
            Telemetry.Span.instant ~ts_ps:!now ~track:tracks.front
              ~cat:"overload" ~args:(trace_args victim.q_req) "drop-oldest";
            enqueue owner
          | Reject | Degrade ->
            incr rejected;
            Telemetry.Sink.incr "serve.rejected";
            Telemetry.Span.instant ~ts_ps:!now ~track:tracks.front
              ~cat:"overload" ~args:(trace_args r) "reject")
    in
    let rec admit_due () =
      match !pending with
      | r :: rest when r.Request.arrival_ps <= !now ->
        pending := rest;
        admit r;
        admit_due ()
      | _ -> ()
    in
    (* One dispatched batch on one replica. Plan in EDF order: resolve
       every tile need against the L1, the tiles already staged by
       earlier requests of this batch, then the shared L2, and stage
       only what is left. *)
    let run_batch rep batch =
      let batch_start = !now in
      let j = jitter rep in
      incr batches;
      rep.r_batches <- rep.r_batches + 1;
      Telemetry.Sink.incr "serve.batches";
      Telemetry.Sink.observe "serve.batch_requests" (List.length batch);
      let staged_tbl = Hashtbl.create 32 in
      let staged_rev = ref [] (* (key, staged), newest first *) in
      let staged_count = ref 0 in
      let plans =
        List.map
          (fun q ->
            let r = q.q_req in
            let stream = t.streams.(r.Request.stream) in
            if q.q_ready_ps > batch_start then
              (* deadline fired before the bytes finished landing:
                 serve best-effort from the received prefix *)
              (q, `Flush)
            else
              let needs =
                List.map
                  (fun (tile_index, key) ->
                    match
                      match rep.r_l1 with Some c -> Cache.find c key | None -> None
                    with
                    | Some tile -> (key, `Hit tile)
                    | None -> (
                      match Hashtbl.find_opt staged_tbl key with
                      | Some si ->
                        incr coalesced;
                        Telemetry.Sink.incr "serve.coalesced";
                        (key, `Shared si)
                      | None -> (
                        match
                          match topo.l2 with
                          | Some t2 -> Tier.find t2 key
                          | None -> None
                        with
                        | Some tile ->
                          (* pull through to the local L1 so this
                             replica's later batches hit at L1 cost *)
                          (match rep.r_l1 with
                          | Some c -> Cache.add c key tile
                          | None -> ());
                          Telemetry.Sink.incr "serve.l2.fetches";
                          (key, `L2 tile)
                        | None ->
                          let st =
                            Jpeg2000.Decoder.stage_tile
                              ~discard:key.Cache.discard stream.s_header
                              stream.s_tiles.(tile_index)
                          in
                          if Telemetry.Sink.enabled () then attribute_t1 st;
                          let si = !staged_count in
                          Hashtbl.replace staged_tbl key si;
                          staged_rev := (key, st) :: !staged_rev;
                          incr staged_count;
                          (key, `Fresh si))))
                  (needed_keys stream r.Request.target)
              in
              (q, `Needs needs))
          batch
      in
      let staged = Array.of_list (List.rev !staged_rev) in
      (* Coalesce: one flat job array over every missing tile of every
         request, one pool map. *)
      let job_index =
        Array.concat
          (Array.to_list
             (Array.mapi
                (fun si (_, st) ->
                  Array.init (Jpeg2000.Decoder.staged_jobs st) (fun ji -> (si, ji)))
                staged))
      in
      Telemetry.Sink.observe "serve.batch_jobs" (Array.length job_index);
      (* In-place staged protocol: each job decodes straight into its
         tile's flat coefficient planes (disjoint rectangles — race-free
         on any pool schedule); only the ok/concealed bit comes back
         through the map. *)
      let oks =
        Par.Pool.map pool job_index (fun (si, ji) ->
            Jpeg2000.Decoder.staged_run (snd staged.(si)) ji)
      in
      (* Finish staged tiles in staging order and publish them to both
         tiers; slice the flat ok array back per tile. *)
      let tiles = Array.make (Array.length staged) None in
      let offset = ref 0 in
      Array.iteri
        (fun si (key, st) ->
          let n = Jpeg2000.Decoder.staged_jobs st in
          let slice = Array.sub oks !offset n in
          offset := !offset + n;
          let tile, tile_concealed = Jpeg2000.Decoder.finish_staged_ok st slice in
          concealed := !concealed + tile_concealed;
          tiles.(si) <- Some tile;
          (match rep.r_l1 with Some c -> Cache.add c key tile | None -> ());
          match topo.l2 with Some t2 -> Tier.add t2 key tile | None -> ())
        staged;
      let tile_of = function
        | `Hit tile | `L2 tile -> tile
        | `Shared si | `Fresh si -> Option.get tiles.(si)
      in
      (* Serve the batch back to back on the simulated clock: each
         request pays for the tiles it was first to need, cache-hit
         cost for the rest, and delivery per output sample. *)
      let cursor = ref (batch_start + ps_per_batch + j) in
      (* Completion accounting shared by both serve paths. [stages] is
         the request's deterministic cost split — the child spans tile
         the "request" span exactly (Σ stage = service_ps), so the
         profiler's cost tree attributes every picosecond of service to
         a named stage with zero self-time left on the parent. *)
      let finish q ~stages ~target_label ~flush image =
        let r = q.q_req in
        let start = !cursor in
        let service_ps = List.fold_left (fun acc (_, ps) -> acc + ps) 0 stages in
        cursor := start + service_ps;
        let completion = !cursor in
        let latency_ps = completion - r.Request.arrival_ps in
        incr served;
        rep.r_served <- rep.r_served + 1;
        latencies := latency_ps :: !latencies;
        makespan := Stdlib.max !makespan completion;
        incr window_events;
        if completion > r.Request.deadline_ps then begin
          incr slo_late;
          incr window_missed;
          Telemetry.Sink.incr "serve.slo_misses";
          Telemetry.Span.instant ~ts_ps:completion ~track:rep.r_exec_track
            ~cat:"slo" ~args:(trace_args r) "deadline-miss"
        end;
        Telemetry.Sink.observe
          ~exemplar:(r.Request.id, Request.trace_to_string r.Request.trace)
          "serve.latency_us" (latency_ps / 1_000_000);
        Telemetry.Span.complete ~ts_ps:r.Request.arrival_ps
          ~dur_ps:(start - r.Request.arrival_ps) ~track:rep.r_queue_track
          ~cat:"queue" ~args:(trace_args r) "queued";
        Telemetry.Span.complete ~ts_ps:start ~dur_ps:service_ps
          ~track:rep.r_exec_track ~cat:"serve"
          ~args:
            (trace_args r
            @ [
                ("stream", Telemetry.Event.Int r.Request.stream);
                ("target", Telemetry.Event.Str target_label);
                ("degraded", Telemetry.Event.Bool q.q_degraded);
              ])
          "request";
        ignore
          (List.fold_left
             (fun ts (stage, dur_ps) ->
               if dur_ps > 0 then
                 Telemetry.Span.complete ~ts_ps:ts ~dur_ps
                   ~track:rep.r_exec_track ~cat:"stage" ~args:(trace_args r)
                   stage;
               ts + dur_ps)
             start stages);
        on_served ~replica:rep.r_id ~completion_ps:completion ~flush r image;
        chain r ~not_before:completion
      in
      List.iter
        (fun (q, plan) ->
          let r = q.q_req in
          let stream = t.streams.(r.Request.stream) in
          let header = stream.s_header in
          match plan with
          | `Flush -> (
            let arr = delivery_for r in
            let prefix = Ingest.prefix_at arr batch_start in
            note_ingest q ~end_ps:batch_start;
            Telemetry.Span.instant ~ts_ps:batch_start ~track:rep.r_sched_track
              ~cat:"ingest"
              ~args:
                (trace_args r
                @ [ ("bytes", Telemetry.Event.Int (String.length prefix)) ])
              "flush";
            match Jpeg2000.Decoder.decode_robust ~pool prefix with
            | Ok (image, damage) ->
              incr flushed;
              Telemetry.Sink.incr "serve.ingest.flushed";
              flush_concealed_blocks :=
                !flush_concealed_blocks + damage.Jpeg2000.Decoder.concealed_blocks;
              flush_concealed_tiles :=
                !flush_concealed_tiles + damage.Jpeg2000.Decoder.concealed_tiles;
              let psnr =
                Jpeg2000.Decoder.psnr_impact
                  ~reference:(Lazy.force stream.s_reference)
                  (image, damage)
              in
              if psnr < !flush_psnr then flush_psnr := psnr;
              (* a flush always renders the full frame: robust decode of
                 the prefix, then whole-image assembly *)
              let out_samples =
                header.Jpeg2000.Codestream.width
                * header.Jpeg2000.Codestream.height
                * header.Jpeg2000.Codestream.components
              in
              finish q
                ~stages:
                  [
                    ("entropy", ps_per_coded_byte * String.length prefix);
                    ("reconstruct", ps_per_sample * out_samples);
                    ("assemble", ps_per_out_sample * out_samples);
                  ]
                ~target_label:"flush" ~flush:(Some prefix) image
            | Error _ ->
              (* prefix too short even for the header: nothing to serve *)
              incr flush_failed;
              incr dropped;
              Telemetry.Sink.incr "serve.dropped";
              Telemetry.Span.instant ~ts_ps:batch_start ~track:rep.r_sched_track
                ~cat:"ingest" ~args:(trace_args r) "flush-failed";
              chain r ~not_before:batch_start)
          | `Needs needs ->
            note_ingest q ~end_ps:q.q_ready_ps;
            (* The cost split by stage: cache lookups, L2 transfers,
               entropy (T1) decode of freshly staged tiles, subband
               reconstruction, output assembly. *)
            let cache_ps = ref 0 and l2_ps = ref 0 and entropy_ps = ref 0 in
            let reconstruct_ps = ref 0 in
            List.iter
              (fun (_, src) ->
                match src with
                | `Hit _ | `Shared _ -> cache_ps := !cache_ps + ps_per_hit
                | `L2 _ ->
                  l2_ps :=
                    !l2_ps + ps_per_hit
                    + Tier.transfer_ps (Option.get topo.l2)
                | `Fresh si ->
                  let st = snd staged.(si) in
                  entropy_ps :=
                    !entropy_ps
                    + (ps_per_block * Jpeg2000.Decoder.staged_jobs st)
                    + (ps_per_coded_byte * Jpeg2000.Decoder.staged_coded_bytes st);
                  reconstruct_ps :=
                    !reconstruct_ps
                    + (ps_per_sample * Jpeg2000.Decoder.staged_samples st))
              needs;
            let ow, oh = output_dims stream r.Request.target in
            let image =
              assemble stream r.Request.target
                (List.map (fun (_, src) -> tile_of src) needs)
            in
            finish q
              ~stages:
                [
                  ("cache", !cache_ps);
                  ("l2", !l2_ps);
                  ("entropy", !entropy_ps);
                  ("reconstruct", !reconstruct_ps);
                  ( "assemble",
                    ps_per_out_sample
                    * (ow * oh * header.Jpeg2000.Codestream.components) );
                ]
              ~target_label:
                (Format.asprintf "%a" Request.pp_target r.Request.target)
              ~flush:None image)
        plans;
      Telemetry.Span.complete ~ts_ps:batch_start ~dur_ps:(!cursor - batch_start)
        ~track:rep.r_sched_track ~cat:"batch"
        ~args:
          [
            ("requests", Telemetry.Event.Int (List.length batch));
            ("jobs", Telemetry.Event.Int (Array.length job_index));
          ]
        "batch";
      rep.r_busy_ps <- rep.r_busy_ps + (!cursor - batch_start);
      rep.r_busy_until <- !cursor
    in
    let deactivate rep =
      fold_l1 rep;
      rep.r_l1 <- None;
      rep.r_state <- Inactive
    in
    let activate rep =
      rep.r_state <- Active;
      rep.r_l1 <- fresh_l1 ();
      rep.r_activated <- true;
      rep.r_busy_until <- Stdlib.max rep.r_busy_until !now;
      ring := Ring.add !ring rep.r_id;
      peak := Stdlib.max !peak (active_count ());
      Telemetry.Span.instant ~ts_ps:!now ~track:rep.r_sched_track
        ~cat:"lifecycle" "up";
      Telemetry.Span.instant ~ts_ps:!now ~track:tracks.front ~cat:"autoscale"
        ~args:[ ("replica", Telemetry.Event.Int rep.r_id) ]
        "join"
    in
    let eval_autoscaler () =
      let active =
        List.filter (fun r -> r.r_state = Active) (Array.to_list reps)
      in
      let n_active = List.length active in
      let warming =
        Array.fold_left
          (fun n r -> if r.r_state = Warming then n + 1 else n)
          0 reps
      in
      let depth_sum = List.fold_left (fun s r -> s + depth r) 0 active in
      let depth_frac =
        if n_active = 0 then 0.0
        else
          float_of_int depth_sum
          /. float_of_int (n_active * config.queue_capacity)
      in
      let miss_rate =
        if !window_events = 0 then 0.0
        else float_of_int !window_missed /. float_of_int !window_events
      in
      if
        (depth_frac >= topo.up_frac || miss_rate >= topo.slo_up)
        && n_active + warming < topo.max_replicas
      then begin
        let rec first_inactive i =
          if i >= topo.max_replicas then None
          else if reps.(i).r_state = Inactive then Some i
          else first_inactive (i + 1)
        in
        match first_inactive 0 with
        | None -> ()
        | Some i ->
          let rep = reps.(i) in
          rep.r_state <- Warming;
          rep.r_ready_ps <- !now + topo.warmup_ps;
          incr scale_ups;
          scale_events := (ms_of_ps !now, Printf.sprintf "+r%d" i) :: !scale_events;
          Telemetry.Sink.incr "serve.scale_ups";
          Telemetry.Span.instant ~ts_ps:!now ~track:tracks.front ~cat:"autoscale"
            ~args:[ ("replica", Telemetry.Event.Int i) ]
            "scale-up"
      end
      else if
        depth_frac <= topo.down_frac
        && miss_rate < topo.slo_up && warming = 0
        && n_active > topo.min_replicas
      then begin
        let victim =
          List.fold_left
            (fun acc r ->
              match acc with
              | None -> Some r
              | Some b ->
                if depth r < depth b || (depth r = depth b && r.r_id > b.r_id)
                then Some r
                else acc)
            None active
        in
        match victim with
        | None -> ()
        | Some rep ->
          ring := Ring.remove !ring rep.r_id;
          incr scale_downs;
          scale_events :=
            (ms_of_ps !now, Printf.sprintf "-r%d" rep.r_id) :: !scale_events;
          Telemetry.Sink.incr "serve.scale_downs";
          Telemetry.Span.instant ~ts_ps:!now ~track:tracks.front ~cat:"autoscale"
            ~args:[ ("replica", Telemetry.Event.Int rep.r_id) ]
            "scale-down";
          if rep.r_queue = [] then deactivate rep else rep.r_state <- Draining
      end;
      window_events := 0;
      window_missed := 0
    in
    (* A queued request is dispatchable once [dispatch_ps] has passed —
       when its tiles land (at arrival when ingest is off) or its
       deadline fires. *)
    let earliest_dispatch rep =
      List.fold_left (fun acc q -> Stdlib.min acc (dispatch_ps q)) max_int
        rep.r_queue
    in
    let dispatch rep =
      if
        (rep.r_state = Active || rep.r_state = Draining)
        && rep.r_queue <> [] && rep.r_busy_until <= !now
      then begin
        let eligible, waiting =
          List.partition (fun q -> dispatch_ps q <= !now) rep.r_queue
        in
        if eligible <> [] then begin
          let rec take k = function
            | x :: rest when k > 0 ->
              let b, l = take (k - 1) rest in
              (x :: b, l)
            | rest -> ([], rest)
          in
          let batch, leftover =
            take config.max_batch (List.sort edf_compare eligible)
          in
          rep.r_queue <- leftover @ waiting;
          emit_depth rep;
          run_batch rep batch;
          if rep.r_state = Draining && rep.r_queue = [] then deactivate rep
        end
      end
    in
    (* Main loop: advance the clock to the earliest pending event and
       process everything due, always in the same order (warm-ups, the
       autoscaler, arrivals, then dispatches in replica-id order) so
       simultaneous events resolve deterministically. Replicas serve in
       parallel on the virtual clock — each one's busy window only
       gates its own queue. [dispatch_ps] is bounded by the deadline,
       so a stalled stream can never wedge the loop. *)
    while !pending <> [] || Array.exists (fun r -> r.r_queue <> []) reps do
      let next = ref max_int in
      (match !pending with r :: _ -> next := r.Request.arrival_ps | [] -> ());
      Array.iter
        (fun r ->
          match r.r_state with
          | Warming -> next := Stdlib.min !next r.r_ready_ps
          | Active | Draining ->
            if r.r_queue <> [] then
              next :=
                Stdlib.min !next
                  (Stdlib.max r.r_busy_until (earliest_dispatch r))
          | Inactive -> ())
        reps;
      if autoscale then next := Stdlib.min !next !next_eval;
      now := Stdlib.max !now !next;
      Array.iter
        (fun r -> if r.r_state = Warming && r.r_ready_ps <= !now then activate r)
        reps;
      if autoscale && !next_eval <= !now then begin
        eval_autoscaler ();
        next_eval := !now + topo.interval_ps
      end;
      admit_due ();
      Array.iter dispatch reps
    done;
    Array.iter fold_l1 reps;
    Telemetry.Sink.incr ~by:!l1h "serve.cache.hits";
    Telemetry.Sink.incr ~by:!l1m "serve.cache.misses";
    Telemetry.Sink.incr ~by:!l1e "serve.cache.evictions";
    Option.iter
      (fun t2 ->
        let s = Tier.stats t2 in
        Telemetry.Sink.incr ~by:s.Lru.hits "serve.l2.hits";
        Telemetry.Sink.incr ~by:s.Lru.misses "serve.l2.misses")
      topo.l2;
    let makespan_ms = ms_of_ps !makespan in
    let slo_misses = !slo_late + !rejected + !dropped in
    {
      total = !total;
      served = !served;
      rejected = !rejected;
      dropped = !dropped;
      degraded = !degraded;
      spilled = !spilled;
      batches = !batches;
      coalesced = !coalesced;
      concealed_blocks = !concealed;
      makespan_ms;
      throughput_rps =
        (if makespan_ms > 0.0 then float_of_int !served /. (makespan_ms /. 1000.0)
         else 0.0);
      latency = latency_of !latencies;
      slo_misses;
      slo_miss_rate =
        (if !total = 0 then 0.0
         else float_of_int slo_misses /. float_of_int !total);
      l1 = { Lru.hits = !l1h; misses = !l1m; insertions = !l1i; evictions = !l1e };
      peak_replicas = !peak;
      final_replicas = active_count ();
      scale_ups = !scale_ups;
      scale_downs = !scale_downs;
      scale_events = List.rev !scale_events;
      per_replica =
        List.filter_map
          (fun r ->
            if r.r_activated then
              Some
                {
                  rs_id = r.r_id;
                  rs_served = r.r_served;
                  rs_batches = r.r_batches;
                  rs_busy_ms = ms_of_ps r.r_busy_ps;
                }
            else None)
          (Array.to_list reps);
      ingest =
        Option.map
          (fun ing ->
            {
              ing_spec = Faults.Ingest.spec_to_string ing;
              ing_chunks_sent = !ing_sent;
              ing_chunks_lost = !ing_lost;
              ing_chunks_duped = !ing_duped;
              ing_chunks_reordered = !ing_reordered;
              ing_stall_ms = ms_of_ps !ing_stall_ps;
              ing_bytes = !ing_bytes;
              ing_flushed = !flushed;
              ing_flush_failed = !flush_failed;
              ing_flush_concealed_blocks = !flush_concealed_blocks;
              ing_flush_concealed_tiles = !flush_concealed_tiles;
              ing_flush_psnr_db = !flush_psnr;
            })
          config.ingest;
    }
end

(* -- the service: the engine's one-replica case ------------------------- *)

let one_replica =
  {
    Engine.replicas = 1;
    min_replicas = 1;
    max_replicas = 1;
    vnodes = 1;
    spill = false;
    l2 = None;
    up_frac = 1.0;
    down_frac = 0.0;
    slo_up = 1.0;
    interval_ps = 1;
    warmup_ps = 0;
    jitter_seed = None;
  }

let service_tracks =
  {
    Engine.front = "serve.sched";
    queue = (fun _ -> "serve.queue");
    exec = (fun _ -> "serve.exec");
    sched = (fun _ -> "serve.sched");
  }

let run ?pool ?on_complete ?on_flush t spec =
  let config = t.config in
  (* fold every served image in completion order *)
  let pixels = ref fnv_basis in
  let on_served ~replica:_ ~completion_ps:_ ~flush r image =
    pixels := fnv_image (fnv_int !pixels r.Request.id) image;
    match (flush, on_complete, on_flush) with
    | None, Some f, _ -> f r image
    | Some prefix, _, Some f -> f r ~prefix image
    | _ -> ()
  in
  let x = Engine.run ?pool ~on_served one_replica service_tracks t spec in
  {
    workload = Request.spec_to_string spec;
    streams = Array.length t.streams;
    policy = overload_to_string config.overload;
    queue_capacity = config.queue_capacity;
    cache_capacity = config.cache_capacity;
    max_batch = config.max_batch;
    total = x.Engine.total;
    served = x.Engine.served;
    rejected = x.Engine.rejected;
    dropped = x.Engine.dropped;
    degraded = x.Engine.degraded;
    batches = x.Engine.batches;
    coalesced = x.Engine.coalesced;
    concealed_blocks = x.Engine.concealed_blocks;
    makespan_ms = x.Engine.makespan_ms;
    throughput_rps = x.Engine.throughput_rps;
    latency = x.Engine.latency;
    slo_misses = x.Engine.slo_misses;
    slo_miss_rate = x.Engine.slo_miss_rate;
    cache_hits = x.Engine.l1.Lru.hits;
    cache_misses = x.Engine.l1.Lru.misses;
    cache_evictions = x.Engine.l1.Lru.evictions;
    cache_hit_rate = Lru.hit_rate x.Engine.l1;
    ingest = x.Engine.ingest;
    pixels_digest = Printf.sprintf "%016Lx" !pixels;
  }

(* -- rendering --------------------------------------------------------- *)

let report_to_json r =
  let open Telemetry.Json in
  Obj
    [
      ("workload", Str r.workload);
      ("streams", Int r.streams);
      ("policy", Str r.policy);
      ("queue_capacity", Int r.queue_capacity);
      ("cache_capacity", Int r.cache_capacity);
      ("max_batch", Int r.max_batch);
      ("total", Int r.total);
      ("served", Int r.served);
      ("rejected", Int r.rejected);
      ("dropped", Int r.dropped);
      ("degraded", Int r.degraded);
      ("batches", Int r.batches);
      ("coalesced", Int r.coalesced);
      ("concealed_blocks", Int r.concealed_blocks);
      ("makespan_ms", Float r.makespan_ms);
      ("throughput_rps", Float r.throughput_rps);
      ("latency_ms", latency_json r.latency);
      ("slo_misses", Int r.slo_misses);
      ("slo_miss_rate", Float r.slo_miss_rate);
      ( "cache",
        Obj
          [
            ("hits", Int r.cache_hits);
            ("misses", Int r.cache_misses);
            ("evictions", Int r.cache_evictions);
            ("hit_rate", Float r.cache_hit_rate);
          ] );
      ( "ingest",
        match r.ingest with
        | None -> Null
        | Some i ->
          Obj
            [
              ("spec", Str i.ing_spec);
              ("chunks_sent", Int i.ing_chunks_sent);
              ("chunks_lost", Int i.ing_chunks_lost);
              ("chunks_duped", Int i.ing_chunks_duped);
              ("chunks_reordered", Int i.ing_chunks_reordered);
              ("stall_ms", Float i.ing_stall_ms);
              ("bytes_received", Int i.ing_bytes);
              ("flushed", Int i.ing_flushed);
              ("flush_failed", Int i.ing_flush_failed);
              ("flush_concealed_blocks", Int i.ing_flush_concealed_blocks);
              ("flush_concealed_tiles", Int i.ing_flush_concealed_tiles);
              ( "flush_psnr_db",
                if Float.is_finite i.ing_flush_psnr_db then
                  Float i.ing_flush_psnr_db
                else Str "inf" );
            ] );
      ("pixels_digest", Str r.pixels_digest);
    ]

let pp_report ppf r =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "workload:        %s@," r.workload;
  Format.fprintf ppf "streams:         %d@," r.streams;
  Format.fprintf ppf "policy:          %s (queue %d, cache %d, batch %d)@,"
    r.policy r.queue_capacity r.cache_capacity r.max_batch;
  Format.fprintf ppf "requests:        %d total, %d served, %d rejected, %d dropped, %d degraded@,"
    r.total r.served r.rejected r.dropped r.degraded;
  Format.fprintf ppf "batches:         %d (%d tile needs coalesced)@," r.batches
    r.coalesced;
  if r.concealed_blocks > 0 then
    Format.fprintf ppf "concealed:       %d blocks@," r.concealed_blocks;
  Format.fprintf ppf "makespan:        %.3f ms (%.1f req/s)@," r.makespan_ms
    r.throughput_rps;
  pp_latency ppf r.latency;
  Format.fprintf ppf "SLO:             %d misses (%.1f%% of %d)@," r.slo_misses
    (100.0 *. r.slo_miss_rate) r.total;
  Format.fprintf ppf "cache:           %d hits, %d misses, %d evictions (%.1f%% hit rate)@,"
    r.cache_hits r.cache_misses r.cache_evictions (100.0 *. r.cache_hit_rate);
  (match r.ingest with
  | None -> ()
  | Some i ->
    Format.fprintf ppf "ingest:          %s@," i.ing_spec;
    Format.fprintf ppf
      "                 %d chunks (%d lost, %d duped, %d reordered), %.3f ms stalled, %d bytes@,"
      i.ing_chunks_sent i.ing_chunks_lost i.ing_chunks_duped
      i.ing_chunks_reordered i.ing_stall_ms i.ing_bytes;
    Format.fprintf ppf
      "flushes:         %d served, %d failed (%d blocks, %d tiles concealed; worst %s dB)@,"
      i.ing_flushed i.ing_flush_failed i.ing_flush_concealed_blocks
      i.ing_flush_concealed_tiles
      (if Float.is_finite i.ing_flush_psnr_db then
         Printf.sprintf "%.2f" i.ing_flush_psnr_db
       else "inf"));
  Format.fprintf ppf "pixels digest:   %s" r.pixels_digest;
  Format.fprintf ppf "@]"
