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

let fnv_prime = 0x100000001b3L

let fnv_int h v =
  let h = Int64.mul (Int64.logxor h (Int64.of_int v)) fnv_prime in
  h

(* Nested loops over a local ref: the compiler keeps [h] unboxed, where
   a ref captured by an iteration closure boxes an [Int64] per sample. *)
let fnv_image h (image : Jpeg2000.Image.t) =
  let h = ref h in
  let planes = image.Jpeg2000.Image.planes in
  for c = 0 to Array.length planes - 1 do
    let p = planes.(c) in
    h := fnv_int (fnv_int !h p.Jpeg2000.Image.width) p.Jpeg2000.Image.height;
    let data = p.Jpeg2000.Image.data in
    for i = 0 to Array.length data - 1 do
      h := fnv_int !h data.(i)
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
  let components = header.Jpeg2000.Codestream.components in
  let bit_depth = header.Jpeg2000.Codestream.bit_depth in
  match target with
  | Request.Full ->
    Jpeg2000.Tile.assemble ~width:header.Jpeg2000.Codestream.width
      ~height:header.Jpeg2000.Codestream.height ~components ~bit_depth tiles
  | Request.Reduced { discard } ->
    Jpeg2000.Tile.assemble
      ~width:
        (Jpeg2000.Decoder.reduced_size header.Jpeg2000.Codestream.width discard)
      ~height:
        (Jpeg2000.Decoder.reduced_size header.Jpeg2000.Codestream.height discard)
      ~components ~bit_depth tiles
  | Request.Region { rx; ry; rw; rh } ->
    let region =
      Jpeg2000.Image.create ~width:rw ~height:rh ~components ~bit_depth ()
    in
    (* Clip each tile plane to the window once, then copy whole rows. *)
    List.iter
      (fun (tile : Jpeg2000.Tile.t) ->
        let x0 = tile.Jpeg2000.Tile.x0 and y0 = tile.Jpeg2000.Tile.y0 in
        Array.iteri
          (fun c (sub : Jpeg2000.Image.plane) ->
            let plane = region.Jpeg2000.Image.planes.(c) in
            let cx0 = Stdlib.max rx x0
            and cx1 = Stdlib.min (rx + rw) (x0 + sub.Jpeg2000.Image.width) in
            if cx0 < cx1 then
              for gy = Stdlib.max ry y0
                  to Stdlib.min (ry + rh) (y0 + sub.Jpeg2000.Image.height) - 1 do
                Jpeg2000.Image.blit_row ~src:sub ~src_x:(cx0 - x0)
                  ~src_y:(gy - y0) ~dst:plane ~dst_x:(cx0 - rx)
                  ~dst_y:(gy - ry) ~len:(cx1 - cx0)
              done)
          tile.Jpeg2000.Tile.planes)
      tiles;
    region

(* Largest degrade level the stream supports: the tile grid must stay
   aligned, and a decode must keep at least one detail level
   ([discard = levels] would leave no band the reduced view keeps). *)
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

(* -- fleet hooks ------------------------------------------------------
   Accessors and helpers the fleet layer builds its replicated
   services and external load balancer from; everything here is a pure
   view of existing state or a re-export of the deterministic
   machinery above. *)

let config (t : t) = t.config
let streams (t : t) = t.streams
let stream_digest s = s.s_digest
let stream_header s = s.s_header
let stream_tile s i = s.s_tiles.(i)
let stream_tile_count s = Array.length s.s_tiles
let stream_reference s = Lazy.force s.s_reference
let fnv_basis = 0xcbf29ce484222325L

let edf_request_order (a : Request.t) (b : Request.t) =
  let c = Int.compare a.Request.deadline_ps b.Request.deadline_ps in
  if c <> 0 then c
  else
    let c = Int.compare a.Request.priority b.Request.priority in
    if c <> 0 then c else Int.compare a.Request.id b.Request.id

(* The full arrival sequence of an open-loop spec, pre-drawn with
   exactly the RNG discipline of [run]'s generator so a fleet workload
   replays the same requests a single service would see. *)
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

(* -- the scheduler ----------------------------------------------------- *)

type queued = {
  q_req : Request.t;
  q_degraded : bool;
  q_ready_ps : int;
      (* instant every tile the request needs has landed on the
         ingest path (= arrival when ingest is off); [max_int] when
         the faulted delivery never completes them *)
}

let edf_compare a b = edf_request_order a.q_req b.q_req

let run ?(pool = Par.Pool.sequential) ?on_complete ?on_flush t spec =
  let config = t.config in
  let nstreams = Array.length t.streams in
  let cache =
    if config.cache_capacity > 0 then
      Some (Cache.create ~capacity:config.cache_capacity)
    else None
  in
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
  (* generated-but-not-admitted requests, sorted by (arrival, id) *)
  let pending = ref [] in
  let insert_pending r =
    let rec ins = function
      | [] -> [ r ]
      | x :: rest ->
        if
          x.Request.arrival_ps < r.Request.arrival_ps
          || (x.Request.arrival_ps = r.Request.arrival_ps
              && x.Request.id < r.Request.id)
        then x :: ins rest
        else r :: x :: rest
    in
    pending := ins !pending
  in
  let next_id = ref 0 in
  let fresh_id () =
    let id = !next_id in
    incr next_id;
    id
  in
  (* Closed-loop state: one child RNG and a remaining-quota per
     client; requests map back to their client for think-time
     chaining. *)
  let client_of_request = Hashtbl.create 64 in
  let clients_rng, clients_left =
    match spec.Request.shape with
    | Request.Open_loop _ -> ([||], [||])
    | Request.Closed_loop { clients; _ } ->
      let master = Faults.Rng.create spec.Request.seed in
      let rngs = Array.init clients (fun _ -> Faults.Rng.split master) in
      let base = spec.Request.n / clients and extra = spec.Request.n mod clients in
      let left = Array.init clients (fun c -> base + if c < extra then 1 else 0) in
      (rngs, left)
  in
  let generate_client_request c ~not_before =
    if clients_left.(c) > 0 then begin
      clients_left.(c) <- clients_left.(c) - 1;
      let rng = clients_rng.(c) in
      let think_ms =
        match spec.Request.shape with
        | Request.Closed_loop { think_ms; _ } -> think_ms
        | Request.Open_loop _ -> assert false
      in
      let arrival_ps = not_before + ps_of_ms (Request.exp_draw rng ~mean:think_ms) in
      let id = fresh_id () in
      let r =
        draw_request rng ~id ~nstreams ~streams:t.streams ~arrival_ps
          ~deadline_ps:(arrival_ps + deadline_rel_ps) spec
      in
      Hashtbl.replace client_of_request id c;
      insert_pending r
    end
  in
  (match spec.Request.shape with
  | Request.Open_loop { rate_rps } ->
    let rng = Faults.Rng.create spec.Request.seed in
    let mean_ms = 1000.0 /. rate_rps in
    let arrival = ref 0 in
    for _ = 1 to spec.Request.n do
      arrival := !arrival + ps_of_ms (Request.exp_draw rng ~mean:mean_ms);
      let id = fresh_id () in
      insert_pending
        (draw_request rng ~id ~nstreams ~streams:t.streams ~arrival_ps:!arrival
           ~deadline_ps:(!arrival + deadline_rel_ps) spec)
    done
  | Request.Closed_loop { clients; _ } ->
    for c = 0 to clients - 1 do
      generate_client_request c ~not_before:0
    done);
  (* mutable run state *)
  let now = ref 0 in
  let queue = ref [] (* queued list, unsorted; EDF-sorted at dispatch *) in
  let total = ref 0
  and served = ref 0
  and rejected = ref 0
  and dropped = ref 0
  and degraded = ref 0
  and batches = ref 0
  and coalesced = ref 0
  and concealed = ref 0
  and slo_misses = ref 0 in
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
  let pixels = ref 0xcbf29ce484222325L in
  let makespan = ref 0 in
  let queue_track = "serve.queue" and exec_track = "serve.exec" in
  let sched_track = "serve.sched" and ingest_track = "serve.ingest" in
  (* Every span and instant about a request carries (id, trace); the
     trace id is a pure hash of (seed, id), so a histogram exemplar or
     a span arg resolves to the same request on any rerun. *)
  let trace_args (r : Request.t) =
    [
      ("id", Telemetry.Event.Int r.Request.id);
      ("trace", Telemetry.Event.Str (Request.trace_to_string r.Request.trace));
    ]
  in
  (* Instant a queued request leaves the queue: when its bytes are
     ready, or at its deadline — whichever comes first — so a stalled
     stream is flushed rather than waited out. *)
  let dispatch_ps q =
    match config.ingest with
    | None -> q.q_req.Request.arrival_ps
    | Some _ -> Stdlib.min q.q_ready_ps q.q_req.Request.deadline_ps
  in
  (* Fold a request's delivery counters into the report exactly once,
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
        ~track:ingest_track ~cat:"ingest"
        ~args:
          (trace_args r
          @ [
              ("chunks", Telemetry.Event.Int d.Faults.Ingest.sent);
              ("lost", Telemetry.Event.Int d.Faults.Ingest.lost);
            ])
        "ingest"
  in
  let emit_depth ts =
    Telemetry.Span.counter ~ts_ps:ts ~track:queue_track "queue_depth"
      (List.length !queue)
  in
  let admit r =
    incr total;
    Telemetry.Sink.incr "serve.arrivals";
    let push q_req q_degraded =
      queue := { q_req; q_degraded; q_ready_ps = ready_ps q_req } :: !queue;
      emit_depth !now
    in
    let depth = List.length !queue in
    let stream = t.streams.(r.Request.stream) in
    let r, was_degraded =
      if config.overload = Degrade && depth >= Stdlib.max 1 (config.queue_capacity / 2)
      then
        match degrade_target stream r.Request.target with
        | Some target -> ({ r with Request.target }, true)
        | None -> (r, false)
      else (r, false)
    in
    if was_degraded then begin
      incr degraded;
      Telemetry.Sink.incr "serve.degraded";
      Telemetry.Span.instant ~ts_ps:!now ~track:sched_track ~cat:"overload"
        ~args:(trace_args r) "degrade"
    end;
    if depth < config.queue_capacity then push r was_degraded
    else
      match config.overload with
      | Drop_oldest -> (
        let oldest =
          List.fold_left
            (fun acc q ->
              match acc with
              | None -> Some q
              | Some best ->
                if
                  q.q_req.Request.arrival_ps < best.q_req.Request.arrival_ps
                  || (q.q_req.Request.arrival_ps = best.q_req.Request.arrival_ps
                      && q.q_req.Request.id < best.q_req.Request.id)
                then Some q
                else acc)
            None !queue
        in
        match oldest with
        | Some victim ->
          queue := List.filter (fun q -> q != victim) !queue;
          incr dropped;
          Telemetry.Sink.incr "serve.dropped";
          Telemetry.Span.instant ~ts_ps:!now ~track:sched_track ~cat:"overload"
            ~args:(trace_args victim.q_req) "drop-oldest";
          push r was_degraded
        | None -> assert false)
      | Reject | Degrade ->
        incr rejected;
        Telemetry.Sink.incr "serve.rejected";
        Telemetry.Span.instant ~ts_ps:!now ~track:sched_track ~cat:"overload"
          ~args:(trace_args r) "reject"
  in
  let admit_due () =
    let rec loop () =
      match !pending with
      | r :: rest when r.Request.arrival_ps <= !now ->
        pending := rest;
        admit r;
        loop ()
      | _ -> ()
    in
    loop ()
  in
  (* one dispatched batch *)
  let run_batch batch =
    incr batches;
    Telemetry.Sink.incr "serve.batches";
    Telemetry.Sink.observe "serve.batch_requests" (List.length batch);
    let batch_start = !now in
    (* Plan in EDF order: resolve every request's tile needs against
       the cache and the tiles already staged by earlier requests of
       this batch. *)
    let staged_tbl = Hashtbl.create 32 in
    let staged_rev = ref [] (* (key, staged), newest first *) in
    let staged_count = ref 0 in
    let plans =
      List.map
        (fun q ->
          let r = q.q_req in
          let stream = t.streams.(r.Request.stream) in
          if config.ingest <> None && q.q_ready_ps > batch_start then
            (* deadline fired before the bytes finished landing:
               serve best-effort from the received prefix *)
            (q, `Flush)
          else
          let needs =
            List.map
              (fun (tile_index, key) ->
                match
                  match cache with Some c -> Cache.find c key | None -> None
                with
                | Some tile -> (key, `Hit tile)
                | None -> (
                  match Hashtbl.find_opt staged_tbl key with
                  | Some si ->
                    incr coalesced;
                    Telemetry.Sink.incr "serve.coalesced";
                    (key, `Shared si)
                  | None ->
                    let st =
                      Jpeg2000.Decoder.stage_tile
                        ~discard:key.Cache.discard stream.s_header
                        stream.s_tiles.(tile_index)
                    in
                    (* T1 attribution per code-block class, priced by
                       the same constants as the request's entropy
                       stage — a deterministic counter family the
                       profiler grafts in as a synthetic track. *)
                    List.iter
                      (fun (cls, blocks, bytes) ->
                        Telemetry.Sink.incr ~by:blocks
                          ("t1.class." ^ cls ^ ".blocks");
                        Telemetry.Sink.incr
                          ~by:
                            ((ps_per_block * blocks)
                            + (ps_per_coded_byte * bytes))
                          ("t1.class." ^ cls ^ ".ps"))
                      (Jpeg2000.Decoder.staged_block_classes st);
                    let si = !staged_count in
                    Hashtbl.replace staged_tbl key si;
                    staged_rev := (key, st) :: !staged_rev;
                    incr staged_count;
                    (key, `Fresh si)))
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
    (* Finish staged tiles in staging order and publish them to the
       cache; slice the flat ok array back per tile. *)
    let tiles = Array.make (Array.length staged) None in
    let offset = ref 0 in
    Array.iteri
      (fun si (key, st) ->
        let n = Jpeg2000.Decoder.staged_jobs st in
        let slice = Array.sub oks !offset n in
        offset := !offset + n;
        let tile, tile_concealed =
          Jpeg2000.Decoder.finish_staged_ok st slice
        in
        concealed := !concealed + tile_concealed;
        tiles.(si) <- Some tile;
        match cache with Some c -> Cache.add c key tile | None -> ())
      staged;
    let tile_of = function
      | `Hit tile -> tile
      | `Shared si | `Fresh si -> Option.get tiles.(si)
    in
    (* Serve the batch back to back on the simulated clock: each
       request pays for the tiles it was first to need, cache-hit
       cost for the rest, and delivery per output sample. *)
    let cursor = ref (batch_start + ps_per_batch) in
    List.iter
      (fun (q, plan) ->
        let r = q.q_req in
        let stream = t.streams.(r.Request.stream) in
        (* completion accounting shared by both serve paths. [stages]
           is the request's deterministic cost split — the child spans
           tile the "request" span exactly (Σ stage = service_ps), so
           the profiler's cost tree attributes every picosecond of
           service to a named stage with zero self-time left on the
           parent beyond rounding. *)
        let finish ~start ~service_ps ~stages ~target_label ~image =
          let completion = !cursor in
          let latency_ps = completion - r.Request.arrival_ps in
          incr served;
          latencies := latency_ps :: !latencies;
          makespan := Stdlib.max !makespan completion;
          if completion > r.Request.deadline_ps then begin
            incr slo_misses;
            Telemetry.Sink.incr "serve.slo_misses";
            Telemetry.Span.instant ~ts_ps:completion ~track:exec_track
              ~cat:"slo" ~args:(trace_args r) "deadline-miss"
          end;
          Telemetry.Sink.observe
            ~exemplar:
              (r.Request.id, Request.trace_to_string r.Request.trace)
            "serve.latency_us" (latency_ps / 1_000_000);
          Telemetry.Span.complete ~ts_ps:r.Request.arrival_ps
            ~dur_ps:(start - r.Request.arrival_ps) ~track:queue_track
            ~cat:"queue" ~args:(trace_args r) "queued";
          Telemetry.Span.complete ~ts_ps:start ~dur_ps:service_ps
            ~track:exec_track ~cat:"serve"
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
                   Telemetry.Span.complete ~ts_ps:ts ~dur_ps ~track:exec_track
                     ~cat:"stage" ~args:(trace_args r) stage;
                 ts + dur_ps)
               start stages);
          pixels := fnv_int !pixels r.Request.id;
          pixels := fnv_image !pixels image;
          completion
        in
        (* closed loop: the client thinks, then issues its next
           request *)
        let chain ~not_before =
          match Hashtbl.find_opt client_of_request r.Request.id with
          | Some c -> generate_client_request c ~not_before
          | None -> ()
        in
        match plan with
        | `Flush -> (
          let arr = delivery_for r in
          let prefix = Ingest.prefix_at arr batch_start in
          note_ingest q ~end_ps:batch_start;
          Telemetry.Span.instant ~ts_ps:batch_start ~track:sched_track
            ~cat:"ingest"
            ~args:
              (trace_args r
              @ [ ("bytes", Telemetry.Event.Int (String.length prefix)) ])
            "flush";
          match Jpeg2000.Decoder.decode_robust ~pool prefix with
          | Ok (image, rep) ->
            incr flushed;
            Telemetry.Sink.incr "serve.ingest.flushed";
            flush_concealed_blocks :=
              !flush_concealed_blocks + rep.Jpeg2000.Decoder.concealed_blocks;
            flush_concealed_tiles :=
              !flush_concealed_tiles + rep.Jpeg2000.Decoder.concealed_tiles;
            let psnr =
              Jpeg2000.Decoder.psnr_impact
                ~reference:(Lazy.force stream.s_reference)
                (image, rep)
            in
            if psnr < !flush_psnr then flush_psnr := psnr;
            (* a flush always renders the full frame: robust decode of
               the prefix, then whole-image assembly *)
            let out_samples =
              stream.s_header.Jpeg2000.Codestream.width
              * stream.s_header.Jpeg2000.Codestream.height
              * stream.s_header.Jpeg2000.Codestream.components
            in
            let entropy_ps = ps_per_coded_byte * String.length prefix in
            let reconstruct_ps = ps_per_sample * out_samples in
            let assemble_ps = ps_per_out_sample * out_samples in
            let service_ps = entropy_ps + reconstruct_ps + assemble_ps in
            let start = !cursor in
            cursor := !cursor + service_ps;
            let completion =
              finish ~start ~service_ps
                ~stages:
                  [
                    ("entropy", entropy_ps);
                    ("reconstruct", reconstruct_ps);
                    ("assemble", assemble_ps);
                  ]
                ~target_label:"flush" ~image
            in
            (match on_flush with Some f -> f r ~prefix image | None -> ());
            chain ~not_before:completion
          | Error _ ->
            (* prefix too short even for the header: nothing to serve *)
            incr flush_failed;
            incr dropped;
            Telemetry.Sink.incr "serve.dropped";
            Telemetry.Span.instant ~ts_ps:batch_start ~track:sched_track
              ~cat:"ingest" ~args:(trace_args r) "flush-failed";
            chain ~not_before:batch_start)
        | `Needs needs ->
          note_ingest q ~end_ps:q.q_ready_ps;
          (* Same cost model as before, split by stage: cache lookups,
             entropy (T1) decode of freshly staged tiles, subband
             reconstruction, output assembly. *)
          let cache_ps = ref 0 and entropy_ps = ref 0 in
          let reconstruct_ps = ref 0 in
          List.iter
            (fun (_, src) ->
              match src with
              | `Hit _ | `Shared _ -> cache_ps := !cache_ps + ps_per_hit
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
          let out_samples =
            ow * oh * stream.s_header.Jpeg2000.Codestream.components
          in
          let assemble_ps = ps_per_out_sample * out_samples in
          let service_ps =
            !cache_ps + !entropy_ps + !reconstruct_ps + assemble_ps
          in
          let start = !cursor in
          cursor := !cursor + service_ps;
          let image =
            assemble stream r.Request.target
              (List.map (fun (_, src) -> tile_of src) needs)
          in
          let completion =
            finish ~start ~service_ps
              ~stages:
                [
                  ("cache", !cache_ps);
                  ("entropy", !entropy_ps);
                  ("reconstruct", !reconstruct_ps);
                  ("assemble", assemble_ps);
                ]
              ~target_label:
                (Format.asprintf "%a" Request.pp_target r.Request.target)
              ~image
          in
          (match on_complete with Some f -> f r image | None -> ());
          chain ~not_before:completion)
      plans;
    Telemetry.Span.complete ~ts_ps:batch_start ~dur_ps:(!cursor - batch_start)
      ~track:sched_track ~cat:"batch"
      ~args:
        [
          ("requests", Telemetry.Event.Int (List.length batch));
          ("jobs", Telemetry.Event.Int (Array.length job_index));
        ]
      "batch";
    now := !cursor
  in
  (* main loop. A queued request is dispatchable once [dispatch_ps]
     has passed — immediately when ingest is off (its bytes arrived
     whole), else when its tiles land or its deadline fires. When
     nothing is dispatchable the clock jumps to the next arrival or
     the next dispatch instant; [dispatch_ps] is bounded by the
     deadline, so a stalled stream can never wedge the loop. *)
  let rec loop () =
    let eligible, waiting =
      List.partition (fun q -> dispatch_ps q <= !now) !queue
    in
    if eligible = [] then begin
      let next_arrival =
        match !pending with
        | [] -> max_int
        | r :: _ -> r.Request.arrival_ps
      in
      let next_dispatch =
        List.fold_left
          (fun acc q -> Stdlib.min acc (dispatch_ps q))
          max_int waiting
      in
      let next = Stdlib.min next_arrival next_dispatch in
      if next < max_int then begin
        now := Stdlib.max !now next;
        admit_due ();
        loop ()
      end
    end
    else begin
      let sorted = List.sort edf_compare eligible in
      let rec take k = function
        | [] -> ([], [])
        | x :: rest when k > 0 ->
          let batch, leftover = take (k - 1) rest in
          (x :: batch, leftover)
        | rest -> ([], rest)
      in
      let batch, leftover = take config.max_batch sorted in
      queue := leftover @ waiting;
      emit_depth !now;
      run_batch batch;
      admit_due ();
      loop ()
    end
  in
  admit_due ();
  loop ();
  (* snapshot *)
  let cache_stats =
    match cache with
    | Some c -> Cache.stats c
    | None -> { Lru.hits = 0; misses = 0; insertions = 0; evictions = 0 }
  in
  Telemetry.Sink.incr ~by:cache_stats.Lru.hits "serve.cache.hits";
  Telemetry.Sink.incr ~by:cache_stats.Lru.misses "serve.cache.misses";
  Telemetry.Sink.incr ~by:cache_stats.Lru.evictions "serve.cache.evictions";
  let latency = latency_of !latencies in
  let makespan_ms = ms_of_ps !makespan in
  let slo_misses_total = !slo_misses + !rejected + !dropped in
  {
    workload = Request.spec_to_string spec;
    streams = nstreams;
    policy = overload_to_string config.overload;
    queue_capacity = config.queue_capacity;
    cache_capacity = config.cache_capacity;
    max_batch = config.max_batch;
    total = !total;
    served = !served;
    rejected = !rejected;
    dropped = !dropped;
    degraded = !degraded;
    batches = !batches;
    coalesced = !coalesced;
    concealed_blocks = !concealed;
    makespan_ms;
    throughput_rps =
      (if makespan_ms > 0.0 then float_of_int !served /. (makespan_ms /. 1000.0)
       else 0.0);
    latency;
    slo_misses = slo_misses_total;
    slo_miss_rate =
      (if !total = 0 then 0.0
       else float_of_int slo_misses_total /. float_of_int !total);
    cache_hits = cache_stats.Lru.hits;
    cache_misses = cache_stats.Lru.misses;
    cache_evictions = cache_stats.Lru.evictions;
    cache_hit_rate = Lru.hit_rate cache_stats;
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
      ( "latency_ms",
        Obj
          [
            ("mean", Float r.latency.mean_ms);
            ("p50", Float r.latency.p50_ms);
            ("p95", Float r.latency.p95_ms);
            ("p99", Float r.latency.p99_ms);
            ("max", Float r.latency.max_ms);
          ] );
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
  Format.fprintf ppf
    "latency [ms]:    mean %.3f  p50 %.3f  p95 %.3f  p99 %.3f  max %.3f@,"
    r.latency.mean_ms r.latency.p50_ms r.latency.p95_ms r.latency.p99_ms
    r.latency.max_ms;
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
