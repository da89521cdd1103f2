type t = {
  events : Event.t Queue.t;
  capacity : int option;
  mutable dropped : int;
  metrics : Metrics.t;
  mutable context : string option;
}

let create ?capacity () =
  (match capacity with
  | Some c when c <= 0 -> invalid_arg "Telemetry.Sink.create: capacity <= 0"
  | _ -> ());
  {
    events = Queue.create ();
    capacity;
    dropped = 0;
    metrics = Metrics.create ();
    context = None;
  }

(* The per-domain sink slot. Everything below the [enabled] check is
   the cold path: when no sink is installed every hook in the stack
   costs one DLS load and one branch. Domain-local (rather than
   process-global) storage is what lets parallel campaigns run one
   simulation per worker domain without interleaving metrics: a sink
   installed inside a [Par.Pool] task is invisible to every other
   domain, and fresh worker domains start with no sink. *)
let current : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let active () = Domain.DLS.get current
let enabled () = Domain.DLS.get current <> None

let events t = List.of_seq (Queue.to_seq t.events)
let event_count t = Queue.length t.events
let dropped t = t.dropped
let metrics t = t.metrics
let report t =
  (* A full ring drops silently at capacity; surface the count so
     reports (and the CLI) can warn that the trace is incomplete. *)
  let r = Report.of_metrics t.metrics in
  if t.dropped = 0 then r
  else
    let counters =
      ("telemetry.dropped_events", t.dropped) :: r.Report.counters
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    in
    { r with Report.counters }

let set_context t label = t.context <- label

let default_track t =
  match t.context with Some label -> label | None -> "main"

let push t (ev : Event.t) =
  (match t.capacity with
  | Some cap when Queue.length t.events >= cap ->
    ignore (Queue.pop t.events);
    t.dropped <- t.dropped + 1
  | _ -> ());
  Queue.push ev t.events

let with_sink ?capacity f =
  let t = create ?capacity () in
  let saved = Domain.DLS.get current in
  Domain.DLS.set current (Some t);
  Fun.protect
    ~finally:(fun () -> Domain.DLS.set current saved)
    (fun () ->
      let result = f () in
      (t, result))

(* Convenience hooks for instrumented code: one branch when disabled. *)

let emit ev =
  match Domain.DLS.get current with None -> () | Some t -> push t ev

let incr ?by key =
  match Domain.DLS.get current with
  | None -> ()
  | Some t -> Metrics.incr t.metrics ?by key

let observe ?exemplar key v =
  match Domain.DLS.get current with
  | None -> ()
  | Some t -> Metrics.observe t.metrics ?exemplar key v

let set_gauge key v =
  match Domain.DLS.get current with
  | None -> ()
  | Some t -> Metrics.set t.metrics key v
