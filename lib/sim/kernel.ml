(* A spawned process as the scheduler accounts for it. *)
type proc = {
  name : string;
  context : string option; (* [Some name]: the sink context of its slices *)
  wakeups_key : string;
  mutable cell : (Telemetry.Sink.t * int ref) option;
      (* its wake-up counter's live cell, cached per sink *)
}

type t = {
  mutable now : Sim_time.t;
  calendar : (unit -> unit) Pqueue.t;
  current : (unit -> unit) Queue.t;
  next_delta : (unit -> unit) Queue.t;
  mutable deltas : int;
  mutable advances : int;
  mutable live : int;
  unfinished : (int, string) Hashtbl.t;
  mutable next_pid : int;
  mutable running : proc; (* the process whose slice runs, or [outside] *)
  mutable settle : unit -> bool;
      (* the running delivery's answer to "are you done?" *)
}

type _ Effect.t += Suspend : ((unit -> unit) -> unit) -> unit Effect.t
type _ Effect.t += Self : t Effect.t

(* [settle] outside a delivery, and on its last callback. *)
let settled () = true

(* The scheduler itself, between slices. *)
let outside = { name = "main"; context = None; wakeups_key = ""; cell = None }

let count_wakeups p s n =
  let cell =
    match p.cell with
    | Some (s', r) when s' == s -> r
    | Some _ | None ->
      let r = Telemetry.Metrics.counter_ref (Telemetry.Sink.metrics s) p.wakeups_key in
      p.cell <- Some (s, r);
      r
  in
  cell := !cell + n

let create () =
  {
    now = Sim_time.zero;
    calendar = Pqueue.create ();
    current = Queue.create ();
    next_delta = Queue.create ();
    deltas = 0;
    advances = 0;
    live = 0;
    unfinished = Hashtbl.create 16;
    next_pid = 0;
    running = outside;
    settle = settled;
  }

let now t = t.now
let delta_count t = t.deltas
let time_advances t = t.advances
let live_processes t = t.live
let schedule_delta t f = Queue.push f t.next_delta

let schedule_after t d f =
  if Sim_time.is_zero d then schedule_delta t f
  else Pqueue.push t.calendar ~key:(Sim_time.to_ps (Sim_time.add t.now d)) f

let spawn t ?name body =
  t.live <- t.live + 1;
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  let label = Option.value name ~default:(Printf.sprintf "process-%d" pid) in
  Hashtbl.replace t.unfinished pid label;
  (* Every slice of this process runs with it as the kernel's running
     process, and the telemetry sink's context mirrors its label so
     spans emitted from library code land on the running process's
     track. A slice restores the process it found, so a process that
     resumed another inline goes back to its own track.

     This wrapper runs once per process wakeup — the hottest telemetry
     path in the kernel — so the process record, with its label and
     wakeup counter key, is built here once, and the epilogue is inlined
     rather than a [Fun.protect] closure: with a sink installed a slice
     costs two sink loads and a counter bump, with no per-slice
     allocation. *)
  let proc =
    {
      name = label;
      context = Some label;
      wakeups_key = "process." ^ label ^ ".wakeups";
      cell = None;
    }
  in
  let with_label f () =
    let prev = t.running in
    t.running <- proc;
    let sink = Telemetry.Sink.active () in
    (match sink with
    | None -> ()
    | Some s ->
      Telemetry.Sink.set_context s proc.context;
      count_wakeups proc s 1);
    match f () with
    | () -> (
      t.running <- prev;
      match sink with
      | None -> ()
      | Some s -> Telemetry.Sink.set_context s prev.context)
    | exception exn ->
      t.running <- prev;
      (match sink with
      | None -> ()
      | Some s -> Telemetry.Sink.set_context s prev.context);
      raise exn
  in
  let finished () =
    t.live <- t.live - 1;
    Hashtbl.remove t.unfinished pid
  in
  let self_answer =
    Some (fun (k : (t, unit) Effect.Deep.continuation) -> Effect.Deep.continue k t)
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
          | Self -> self_answer
          | _ -> None);
    }
  in
  Queue.push (with_label (fun () -> Effect.Deep.match_with body () handler)) t.current

(* One delta cycle: drain the evaluation queue (actions may append
   more). Returns [true] if it scheduled work for another delta at the
   same time. *)
let run_delta t =
  while not (Queue.is_empty t.current) do
    let action = Queue.pop t.current in
    action ()
  done;
  t.deltas <- t.deltas + 1;
  not (Queue.is_empty t.next_delta)

(* Runs [f] on every element of [q], popping each first. While
   elements remain, [t.settle] is [settle], so a process resumed by [f]
   advances time in place only if the rest of the delivery can finish
   without running anyone. *)
let deliver t q ~settle f =
  match
    while not (Queue.is_empty q) do
      let x = Queue.pop q in
      t.settle <- (if Queue.is_empty q then settled else settle);
      f x
    done
  with
  | () -> t.settle <- settled
  | exception exn ->
    t.settle <- settled;
    raise exn

let run t =
  let continue = ref true in
  while !continue do
    if run_delta t then Queue.transfer t.next_delta t.current
    else if Pqueue.length t.calendar = 0 then continue := false
    else begin
      let key = Pqueue.next_key t.calendar in
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

let running t = t.running
let proc_name p = p.name

(* Counts [n] wake-ups of [p] under the active sink. The running
   process also takes the sink context back, as its resume would. *)
let woke t p n =
  match Telemetry.Sink.active () with
  | None -> ()
  | Some s ->
    if p == t.running then Telemetry.Sink.set_context s p.context;
    count_wakeups p s n

(* Suspending the caller of [wait_for d] would end this delta cycle,
   advance time to [now + d] and resume the caller there, and nothing
   else would run in between when: nothing is runnable at [now], the
   running delivery has nothing left to run, and no calendar entry is
   due at or before [now + d] (one due exactly then was queued first
   and runs first). Then the caller may do the same bookkeeping itself
   and keep the slice running. After such a step nothing is runnable
   and the delivery is settled, and nothing the kernel runs changes
   that until the slice schedules something or ends; so every later
   step (or hand-off, [d = 0]) only has to end by the instant returned
   here, which stays the same meanwhile. *)
let in_place_limit_ps t d =
  (* The last instant a step may end at. *)
  let last = Pqueue.next_key t.calendar - 1 in
  if
    Sim_time.to_ps t.now + d > last
    || (not (Queue.is_empty t.current))
    || (not (Queue.is_empty t.next_delta))
    || not (t.settle ())
  then -1
  else begin
    t.settle <- settled;
    last
  end

let in_place_limit t d =
  if Sim_time.is_zero d then -1 else in_place_limit_ps t (Sim_time.to_ps d)

let advance_in_place t d ~steps =
  let d = Sim_time.to_ps d in
  let last = if steps <= 0 || d <= 0 then -1 else in_place_limit_ps t d in
  if last < 0 then 0
  else begin
    let now = Sim_time.to_ps t.now in
    let k = if steps = 1 then 1 else Stdlib.min steps ((last - now) / d) in
    t.deltas <- t.deltas + k;
    t.now <- Sim_time.of_ps (now + (k * d));
    t.advances <- t.advances + k;
    woke t t.running k;
    k
  end

(* [count] times over: the running process suspends, ending this delta
   cycle, and the next one resumes [p] alone, at the same instant; [p]
   then advances [d] in place. *)
let hand_off t p d ~count =
  let d = Sim_time.to_ps d in
  if d <= 0 || count <= 0 || in_place_limit_ps t (count * d) < 0 then
    invalid_arg "Kernel.hand_off: not an in-place hand-off";
  t.deltas <- t.deltas + (2 * count);
  t.now <- Sim_time.of_ps (Sim_time.to_ps t.now + (count * d));
  t.advances <- t.advances + count;
  woke t p (2 * count)

let wait_for d =
  let t = self () in
  if advance_in_place t d ~steps:1 = 0 then
    suspend (fun resume -> schedule_after t d resume)
