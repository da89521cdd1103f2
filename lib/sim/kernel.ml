type race = {
  race_signal : string;
  race_first : string;
  race_second : string;
  race_time : Sim_time.t;
  race_delta : int;
}

type race_policy = Race_ignore | Race_record | Race_raise

exception Delta_race of race

type t = {
  mutable now : Sim_time.t;
  calendar : (unit -> unit) Pqueue.t;
  current : (unit -> unit) Queue.t;
  next_delta : (unit -> unit) Queue.t;
  updates : (unit -> unit) Queue.t;
  mutable deltas : int;
  mutable advances : int;
  mutable live : int;
  unfinished : (int, string) Hashtbl.t;
  mutable next_pid : int;
  mutable stop_requested : bool;
  mutable started : bool;
  mutable current_label : string option;
  mutable race_policy : race_policy;
  mutable races : race list; (* reversed *)
}

type _ Effect.t += Suspend : ((unit -> unit) -> unit) -> unit Effect.t
type _ Effect.t += Self : t Effect.t

let create () =
  {
    now = Sim_time.zero;
    calendar = Pqueue.create ();
    current = Queue.create ();
    next_delta = Queue.create ();
    updates = Queue.create ();
    deltas = 0;
    advances = 0;
    live = 0;
    unfinished = Hashtbl.create 16;
    next_pid = 0;
    stop_requested = false;
    started = false;
    current_label = None;
    race_policy = Race_record;
    races = [];
  }

let now t = t.now
let delta_count t = t.deltas
let time_advances t = t.advances
let live_processes t = t.live
let schedule_now t f = Queue.push f t.current
let schedule_delta t f = Queue.push f t.next_delta

let schedule_after t d f =
  if Sim_time.is_zero d then schedule_delta t f
  else Pqueue.push t.calendar ~key:(Sim_time.to_ps (Sim_time.add t.now d)) f

let at_update t f = Queue.push f t.updates
let stop t = t.stop_requested <- true
let current_label t = t.current_label
let set_race_policy t p = t.race_policy <- p
let races t = List.rev t.races

let report_race t ~signal ~first ~second =
  let race =
    {
      race_signal = signal;
      race_first = first;
      race_second = second;
      race_time = t.now;
      race_delta = t.deltas;
    }
  in
  match t.race_policy with
  | Race_ignore -> ()
  | Race_record -> t.races <- race :: t.races
  | Race_raise -> raise (Delta_race race)

let spawn t ?name body =
  t.live <- t.live + 1;
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  let label = Option.value name ~default:(Printf.sprintf "process-%d" pid) in
  Hashtbl.replace t.unfinished pid label;
  (* Every slice of this process runs with its label as the kernel's
     current label, so primitive channels can attribute writes to a
     driver (the delta-race detector keys on this). The telemetry
     sink's context mirrors the label so spans emitted from library
     code land on the running process's track.

     This wrapper runs once per process wakeup — the hottest telemetry
     path in the kernel — so the label option and the wakeup counter
     key are interned here, and the epilogue is inlined rather than a
     [Fun.protect] closure: with a sink installed a slice costs two
     sink loads and a counter bump, with no per-slice allocation. *)
  let some_label = Some label in
  let wakeups_key = "process." ^ label ^ ".wakeups" in
  (* The wakeup counter's live cell, cached per (process, sink) so a
     slice bumps a ref instead of hashing the key; invalidated when a
     different sink is installed between slices. *)
  let cached_cell : (Telemetry.Sink.t * int ref) option ref = ref None in
  let with_label f () =
    let prev = t.current_label in
    t.current_label <- some_label;
    let sink = Telemetry.Sink.active () in
    (match sink with
    | None -> ()
    | Some s ->
      Telemetry.Sink.set_context s some_label;
      let cell =
        match !cached_cell with
        | Some (s', r) when s' == s -> r
        | Some _ | None ->
          let r =
            Telemetry.Metrics.counter_ref (Telemetry.Sink.metrics s)
              wakeups_key
          in
          cached_cell := Some (s, r);
          r
      in
      Stdlib.incr cell);
    match f () with
    | () -> (
      t.current_label <- prev;
      match sink with
      | None -> ()
      | Some s -> Telemetry.Sink.set_context s prev)
    | exception exn ->
      t.current_label <- prev;
      (match sink with
      | None -> ()
      | Some s -> Telemetry.Sink.set_context s prev);
      raise exn
  in
  let finished () =
    t.live <- t.live - 1;
    Hashtbl.remove t.unfinished pid
  in
  let handler =
    {
      Effect.Deep.retc = finished;
      exnc = (fun exn -> finished (); raise exn);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Suspend register ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                register (with_label (fun () -> Effect.Deep.continue k ())))
          | Self ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                Effect.Deep.continue k t)
          | _ -> None);
    }
  in
  let start = with_label (fun () -> Effect.Deep.match_with body () handler) in
  schedule_now t start

(* One delta cycle: drain the evaluation queue (actions may append
   more), then commit updates. Returns [true] if the update phase or
   the evaluation phase scheduled work for another delta at the same
   time. *)
let run_delta t =
  while not (Queue.is_empty t.current) && not t.stop_requested do
    let action = Queue.pop t.current in
    action ()
  done;
  while not (Queue.is_empty t.updates) do
    let update = Queue.pop t.updates in
    update ()
  done;
  t.deltas <- t.deltas + 1;
  not (Queue.is_empty t.next_delta)

let run ?until t =
  t.started <- true;
  t.stop_requested <- false;
  let horizon =
    match until with None -> max_int | Some u -> Sim_time.to_ps u
  in
  let continue = ref true in
  while !continue && not t.stop_requested do
    let again = run_delta t in
    if t.stop_requested then continue := false
    else if again then Queue.transfer t.next_delta t.current
    else begin
      match Pqueue.min_key t.calendar with
      | None -> continue := false
      | Some key when key > horizon ->
        (match until with Some u -> t.now <- u | None -> ());
        continue := false
      | Some key ->
        t.now <- Sim_time.of_ps key;
        t.advances <- t.advances + 1;
        let rec drain () =
          match Pqueue.pop_le t.calendar ~key with
          | None -> ()
          | Some action ->
            Queue.push action t.current;
            drain ()
        in
        drain ()
    end
  done

let live_process_names t =
  Hashtbl.fold (fun _ name acc -> name :: acc) t.unfinished []
  |> List.sort String.compare

let self () = Effect.perform Self

let suspend register = Effect.perform (Suspend register)

let wait_for d =
  let t = self () in
  suspend (fun resume -> schedule_after t d resume)

let yield () =
  let t = self () in
  suspend (fun resume -> schedule_delta t resume)
