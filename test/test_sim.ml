(* Tests for the discrete-event simulation kernel. *)

let time = Alcotest.testable Sim.Sim_time.pp Sim.Sim_time.equal

let ms = Sim.Sim_time.ms
let us = Sim.Sim_time.us
let ns = Sim.Sim_time.ns

(* -- Sim_time ----------------------------------------------------- *)

let test_time_units () =
  Alcotest.(check int) "1 ms in ps" 1_000_000_000 Sim.Sim_time.(to_ps (ms 1));
  Alcotest.(check int) "1 us in ps" 1_000_000 Sim.Sim_time.(to_ps (us 1));
  Alcotest.(check int) "1 ns in ps" 1_000 Sim.Sim_time.(to_ps (ns 1));
  Alcotest.check time "add" (ms 3) Sim.Sim_time.(add (ms 1) (ms 2));
  Alcotest.check time "sub" (ms 1) Sim.Sim_time.(sub (ms 3) (ms 2));
  Alcotest.check time "cycles at 100 MHz" (ns 10)
    (Sim.Sim_time.cycles ~hz:100_000_000 1);
  Alcotest.check time "of_ms_float" (us 1500) (Sim.Sim_time.of_ms_float 1.5)

let test_time_invalid () =
  Alcotest.check_raises "negative" (Invalid_argument "Sim_time.of_ps: negative")
    (fun () -> ignore (Sim.Sim_time.of_ps (-1)));
  Alcotest.check_raises "negative sub"
    (Invalid_argument "Sim_time.sub: negative result") (fun () ->
      ignore Sim.Sim_time.(sub (ms 1) (ms 2)))

let test_time_pp () =
  Alcotest.(check string) "ms" "2.5 ms" Sim.Sim_time.(to_string (us 2500));
  Alcotest.(check string) "ns" "10 ns" Sim.Sim_time.(to_string (ns 10));
  Alcotest.(check string) "zero" "0 s" Sim.Sim_time.(to_string zero)

(* -- Pqueue ------------------------------------------------------- *)

let test_pqueue_order () =
  let q = Sim.Pqueue.create () in
  List.iter (fun (k, v) -> Sim.Pqueue.push q ~key:k v)
    [ (5, "e"); (1, "a"); (3, "c"); (1, "b"); (3, "d") ];
  let order = ref [] in
  let rec drain () =
    match Sim.Pqueue.pop q with
    | None -> ()
    | Some (_, v) ->
      order := v :: !order;
      drain ()
  in
  drain ();
  Alcotest.(check (list string)) "stable order" [ "a"; "b"; "c"; "d"; "e" ]
    (List.rev !order)

let test_pqueue_fifo_qcheck =
  QCheck.Test.make ~name:"pqueue pops sorted and FIFO-stable" ~count:200
    QCheck.(list (int_bound 50))
    (fun keys ->
      let q = Sim.Pqueue.create () in
      List.iteri (fun i k -> Sim.Pqueue.push q ~key:k (k, i)) keys;
      let rec drain acc =
        match Sim.Pqueue.pop q with
        | None -> List.rev acc
        | Some (_, v) -> drain (v :: acc)
      in
      let popped = drain [] in
      let sorted =
        List.stable_sort
          (fun (k1, _) (k2, _) -> Int.compare k1 k2)
          (List.mapi (fun i k -> (k, i)) keys)
      in
      popped = sorted)

(* Kept out of line so no stack slot of the test body itself pins the
   pushed values. *)
let[@inline never] pqueue_fill q weak =
  let a = ref 1 and b = ref 2 in
  Weak.set weak 0 (Some a);
  Weak.set weak 1 (Some b);
  Sim.Pqueue.push q ~key:1 a;
  Sim.Pqueue.push q ~key:2 b

let test_pqueue_pop_clears_slot () =
  (* Regression: [pop] used to leave the moved last entry in the
     vacated slot [heap.(size)], keeping the popped value (and any
     closure it captures) live until a later push overwrote it. *)
  let q = Sim.Pqueue.create () in
  let weak = Weak.create 2 in
  pqueue_fill q weak;
  ignore (Sim.Pqueue.pop q);
  ignore (Sim.Pqueue.pop q);
  Gc.full_major ();
  Alcotest.(check bool) "first popped value collected" false
    (Weak.check weak 0);
  Alcotest.(check bool) "second popped value collected" false
    (Weak.check weak 1)

let test_pqueue_pop_le () =
  let q = Sim.Pqueue.create () in
  List.iter (fun k -> Sim.Pqueue.push q ~key:k k) [ 5; 2; 9 ];
  Alcotest.(check (option int)) "below threshold" (Some 2)
    (Sim.Pqueue.pop_le q ~key:3);
  Alcotest.(check (option int)) "next exceeds" None (Sim.Pqueue.pop_le q ~key:3);
  Alcotest.(check (option int)) "raised threshold" (Some 5)
    (Sim.Pqueue.pop_le q ~key:5);
  Alcotest.(check int) "one left" 1 (Sim.Pqueue.length q)

(* -- Kernel ------------------------------------------------------- *)

let test_wait_for_advances_time () =
  let k = Sim.Kernel.create () in
  let seen = ref [] in
  Sim.Kernel.spawn k (fun () ->
      seen := Sim.Kernel.now k :: !seen;
      Sim.Kernel.wait_for (ms 5);
      seen := Sim.Kernel.now k :: !seen;
      Sim.Kernel.wait_for (ms 7);
      seen := Sim.Kernel.now k :: !seen);
  Sim.Kernel.run k;
  Alcotest.(check (list time)) "times"
    [ Sim.Sim_time.zero; ms 5; ms 12 ]
    (List.rev !seen);
  Alcotest.check time "final time" (ms 12) (Sim.Kernel.now k)

let test_two_processes_interleave () =
  let k = Sim.Kernel.create () in
  let log = ref [] in
  let say s = log := s :: !log in
  Sim.Kernel.spawn k (fun () ->
      say "a0";
      Sim.Kernel.wait_for (ms 2);
      say "a2");
  Sim.Kernel.spawn k (fun () ->
      say "b0";
      Sim.Kernel.wait_for (ms 1);
      say "b1";
      Sim.Kernel.wait_for (ms 2);
      say "b3");
  Sim.Kernel.run k;
  Alcotest.(check (list string)) "interleaving"
    [ "a0"; "b0"; "b1"; "a2"; "b3" ]
    (List.rev !log)

let test_spawn_during_run () =
  let k = Sim.Kernel.create () in
  let log = ref [] in
  Sim.Kernel.spawn k (fun () ->
      Sim.Kernel.wait_for (ms 1);
      Sim.Kernel.spawn k (fun () ->
          log := Sim.Kernel.now k :: !log;
          Sim.Kernel.wait_for (ms 1);
          log := Sim.Kernel.now k :: !log));
  Sim.Kernel.run k;
  Alcotest.(check (list time)) "child times" [ ms 1; ms 2 ] (List.rev !log)

let test_exception_propagates () =
  let k = Sim.Kernel.create () in
  Sim.Kernel.spawn k (fun () ->
      Sim.Kernel.wait_for (ms 1);
      failwith "boom");
  Alcotest.check_raises "escapes run" (Failure "boom") (fun () ->
      Sim.Kernel.run k)

let test_live_process_names () =
  let k = Sim.Kernel.create () in
  let e = Sim.Event.create k () in
  Sim.Kernel.spawn k ~name:"finishes" (fun () -> Sim.Kernel.wait_for (ms 1));
  Sim.Kernel.spawn k ~name:"blocked-forever" (fun () -> Sim.Event.wait e);
  Sim.Kernel.run k;
  Alcotest.(check (list string)) "blocked process identified"
    [ "blocked-forever" ]
    (Sim.Kernel.live_process_names k)

let test_live_processes () =
  let k = Sim.Kernel.create () in
  Sim.Kernel.spawn k (fun () -> Sim.Kernel.wait_for (ms 1));
  Sim.Kernel.spawn k (fun () -> Sim.Kernel.wait_for (ms 2));
  Alcotest.(check int) "before run" 2 (Sim.Kernel.live_processes k);
  Sim.Kernel.run k;
  Alcotest.(check int) "after run" 0 (Sim.Kernel.live_processes k)

(* -- Event -------------------------------------------------------- *)

let test_delta_count_advances () =
  let k = Sim.Kernel.create () in
  let e = Sim.Event.create k () in
  Sim.Kernel.spawn k (fun () ->
      Sim.Event.notify e;
      Sim.Event.wait e);
  Sim.Kernel.spawn k (fun () ->
      Sim.Kernel.wait_for Sim.Sim_time.zero;
      Sim.Event.notify e);
  Sim.Kernel.run k;
  Alcotest.(check bool) "several delta cycles ran" true
    (Sim.Kernel.delta_count k >= 2)

let test_event_wakes_waiters () =
  let k = Sim.Kernel.create () in
  let e = Sim.Event.create k ~name:"go" () in
  let woken = ref [] in
  let waiter name =
    Sim.Kernel.spawn k (fun () ->
        Sim.Event.wait e;
        woken := (name, Sim.Kernel.now k) :: !woken)
  in
  waiter "w1";
  waiter "w2";
  Sim.Kernel.spawn k (fun () ->
      Sim.Kernel.wait_for (ms 3);
      Sim.Event.notify e);
  Sim.Kernel.run k;
  Alcotest.(check (list (pair string time)))
    "both woken at notify time"
    [ ("w1", ms 3); ("w2", ms 3) ]
    (List.rev !woken)

let test_event_late_waiter_not_woken () =
  let k = Sim.Kernel.create () in
  let e = Sim.Event.create k () in
  let woken = ref 0 in
  Sim.Kernel.spawn k (fun () ->
      (* Notify, then wait: the notification must not wake us. *)
      Sim.Event.notify e;
      Sim.Event.wait e;
      incr woken);
  Sim.Kernel.run k;
  Alcotest.(check int) "not woken by own earlier notify" 0 !woken

(* -- Mailbox ------------------------------------------------------ *)

let test_mailbox_fifo () =
  let k = Sim.Kernel.create () in
  let mb = Sim.Mailbox.create k () in
  let received = ref [] in
  Sim.Kernel.spawn k (fun () ->
      for i = 1 to 5 do
        Sim.Mailbox.put mb i;
        Sim.Kernel.wait_for (ms 1)
      done);
  Sim.Kernel.spawn k (fun () ->
      for _ = 1 to 5 do
        received := Sim.Mailbox.get mb :: !received
      done);
  Sim.Kernel.run k;
  Alcotest.(check (list int)) "fifo order" [ 1; 2; 3; 4; 5 ]
    (List.rev !received)

let test_mailbox_blocks_when_full () =
  let k = Sim.Kernel.create () in
  let mb = Sim.Mailbox.create k ~capacity:2 () in
  let producer_done = ref Sim.Sim_time.zero in
  Sim.Kernel.spawn k (fun () ->
      for i = 1 to 3 do
        Sim.Mailbox.put mb i
      done;
      producer_done := Sim.Kernel.now k);
  Sim.Kernel.spawn k (fun () ->
      Sim.Kernel.wait_for (ms 5);
      ignore (Sim.Mailbox.get mb));
  Sim.Kernel.run k;
  Alcotest.check time "third put blocked until get" (ms 5) !producer_done

let monotonic_time_qcheck =
  QCheck.Test.make ~name:"kernel time is monotonic" ~count:50
    QCheck.(list_of_size Gen.(1 -- 20) (int_bound 1000))
    (fun delays ->
      let k = Sim.Kernel.create () in
      let ok = ref true in
      let last = ref Sim.Sim_time.zero in
      List.iteri
        (fun _ d ->
          Sim.Kernel.spawn k (fun () ->
              Sim.Kernel.wait_for (us d);
              if Sim.Sim_time.( < ) (Sim.Kernel.now k) !last then ok := false;
              last := Sim.Kernel.now k))
        delays;
      Sim.Kernel.run k;
      !ok)

(* -- In-place time advance ----------------------------------------- *)

(* [Kernel.wait_for] as it was before it could advance time in place:
   always a suspend and a calendar entry. The reference of the property
   below. *)
let suspending_wait_for d =
  let k = Sim.Kernel.self () in
  Sim.Kernel.suspend (fun resume -> Sim.Kernel.schedule_after k d resume)

(* Two processes woken by one notification: the first one's wait must
   not run ahead of its sibling, which still runs at the notify time. *)
let test_in_place_sibling_in_delivery () =
  let k = Sim.Kernel.create () in
  let e = Sim.Event.create k () in
  let log = ref [] in
  let say s = log := (s, Sim.Kernel.now k) :: !log in
  Sim.Kernel.spawn k (fun () ->
      Sim.Event.wait e;
      Sim.Kernel.wait_for (ms 1);
      say "first");
  Sim.Kernel.spawn k (fun () ->
      Sim.Event.wait e;
      say "second");
  Sim.Kernel.spawn k (fun () ->
      Sim.Kernel.wait_for (ms 3);
      Sim.Event.notify e);
  Sim.Kernel.run k;
  Alcotest.(check (list (pair string time)))
    "sibling at the notify time" [ ("second", ms 3); ("first", ms 4) ]
    (List.rev !log)

(* A calendar entry due exactly at [now + d] was queued first, so it
   runs first. *)
let test_in_place_entry_due_at_wake () =
  let k = Sim.Kernel.create () in
  let log = ref [] in
  Sim.Kernel.spawn k ~name:"early" (fun () ->
      Sim.Kernel.wait_for (ms 3);
      log := "early" :: !log);
  Sim.Kernel.spawn k ~name:"late" (fun () ->
      Sim.Kernel.wait_for (ms 1);
      Sim.Kernel.wait_for (ms 2);
      log := "late" :: !log);
  Sim.Kernel.run k;
  Alcotest.(check (list string)) "queued first runs first" [ "early"; "late" ]
    (List.rev !log);
  Alcotest.(check int) "time advances" 2 (Sim.Kernel.time_advances k)

(* [advance_in_place] takes the steps that end before the next
   calendar entry, up to [steps], and counts each one. *)
let test_in_place_steps () =
  let k = Sim.Kernel.create () in
  let taken = ref [] in
  let sink, () =
    Telemetry.Sink.with_sink (fun () ->
        Sim.Kernel.spawn k ~name:"bg" (fun () -> Sim.Kernel.wait_for (ms 3));
        Sim.Kernel.spawn k ~name:"p" (fun () ->
            Sim.Kernel.wait_for Sim.Sim_time.zero;
            let step steps =
              taken := Sim.Kernel.advance_in_place k (ms 1) ~steps :: !taken
            in
            (* The entry at 3 ms stops the steps that would end there. *)
            step 5;
            Sim.Kernel.wait_for (ms 1);
            (* Nothing left in the calendar: only [steps] bounds it. *)
            step 4;
            step 0);
        Sim.Kernel.run k)
  in
  Alcotest.(check (list int)) "steps taken" [ 2; 4; 0 ] (List.rev !taken);
  Alcotest.check time "after the last step" (ms 7) (Sim.Kernel.now k);
  (* One delta and one time advance per step, as suspends would give. *)
  Alcotest.(check (pair int int)) "deltas, time advances" (9, 7)
    (Sim.Kernel.delta_count k, Sim.Kernel.time_advances k);
  Alcotest.(check int) "wake-ups" 9
    (Telemetry.Metrics.counter (Telemetry.Sink.metrics sink) "process.p.wakeups")

(* Random process programs, run once with [Kernel.wait_for] and once
   with [suspending_wait_for]: every step must happen in the same
   process order, at the same instant and in the same delta cycle, and
   the time advances and telemetry (wake-up counters included) must be
   the same. *)
type op =
  | Wait of int  (** [wait_for] this many ns; 0 is the next delta *)
  | Notify of int
  | Wait_event of int
  | Locked of int * int  (** hold lock [l] for [n] ns *)
  | Spawn of op list

let rec show_op = function
  | Wait n -> Printf.sprintf "wait %d" n
  | Notify e -> Printf.sprintf "notify e%d" e
  | Wait_event e -> Printf.sprintf "wait e%d" e
  | Locked (l, n) -> Printf.sprintf "lock l%d for %d" l n
  | Spawn ops -> Printf.sprintf "spawn {%s}" (String.concat "; " (List.map show_op ops))

(* A program is one op list per process. *)
let show_program p =
  String.concat "\n"
    (List.mapi
       (fun i ops -> Printf.sprintf "  p%d: %s" i (String.concat "; " (List.map show_op ops)))
       p)

let events = 2
let locks = 2

let program_gen =
  let open QCheck.Gen in
  let ns = int_range 0 4 in
  let base =
    frequency
      [
        (6, map (fun n -> Wait n) ns);
        (2, map (fun e -> Notify e) (int_bound (events - 1)));
        (2, map (fun e -> Wait_event e) (int_bound (events - 1)));
        (3, map2 (fun l n -> Locked (l, n)) (int_bound (locks - 1)) ns);
      ]
  in
  let op =
    frequency [ (12, base); (1, map (fun ops -> Spawn ops) (list_size (int_range 1 4) base)) ]
  in
  list_size (int_range 1 4) (list_size (int_range 1 8) op)

let run_program wait p =
  let k = Sim.Kernel.create () in
  let evs = Array.init events (fun i -> Sim.Event.create k ~name:(Printf.sprintf "e%d" i) ()) in
  let lks =
    Array.init locks (fun i ->
        Osss.Lock.create k ~name:(Printf.sprintf "l%d" i)
          ~arbiter:(Osss.Arbiter.create Osss.Arbiter.Fcfs))
  in
  let log = ref [] in
  let rec spawn name ops =
    let holders =
      Array.map (fun l -> Osss.Lock.register l ~name ()) lks
    in
    Sim.Kernel.spawn k ~name (fun () ->
        List.iteri
          (fun step op ->
            (match op with
            | Wait n -> wait (ns n)
            | Notify e -> Sim.Event.notify evs.(e)
            | Wait_event e -> Sim.Event.wait evs.(e)
            | Locked (l, n) ->
              Osss.Lock.with_lock lks.(l) holders.(l) (fun () ->
                  if n > 0 then wait (ns n))
            | Spawn ops -> spawn (Printf.sprintf "%s.%d" name step) ops);
            log :=
              (name, step, Sim.Sim_time.to_ps (Sim.Kernel.now k), Sim.Kernel.delta_count k)
              :: !log)
          ops)
  in
  let sink, () =
    Telemetry.Sink.with_sink (fun () ->
        List.iteri (fun i ops -> spawn (Printf.sprintf "p%d" i) ops) p;
        Sim.Kernel.run k)
  in
  ( List.rev !log,
    Sim.Sim_time.to_ps (Sim.Kernel.now k),
    Sim.Kernel.delta_count k,
    Sim.Kernel.time_advances k,
    Sim.Kernel.live_process_names k,
    Telemetry.Metrics.counters (Telemetry.Sink.metrics sink),
    Telemetry.Chrome.to_string (Telemetry.Sink.events sink) )

let in_place_matches_suspend_qcheck =
  QCheck.Test.make ~name:"wait_for in place = wait_for by suspend" ~count:3000
    (QCheck.make ~print:show_program program_gen)
    (fun p -> run_program Sim.Kernel.wait_for p = run_program suspending_wait_for p)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "sim"
    [
      ( "time",
        [
          Alcotest.test_case "units" `Quick test_time_units;
          Alcotest.test_case "invalid" `Quick test_time_invalid;
          Alcotest.test_case "pretty-printing" `Quick test_time_pp;
        ] );
      ( "pqueue",
        [
          Alcotest.test_case "stable order" `Quick test_pqueue_order;
          qc test_pqueue_fifo_qcheck;
          Alcotest.test_case "pop clears vacated slot" `Quick
            test_pqueue_pop_clears_slot;
          Alcotest.test_case "pop_le" `Quick test_pqueue_pop_le;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "wait_for advances time" `Quick
            test_wait_for_advances_time;
          Alcotest.test_case "two processes interleave" `Quick
            test_two_processes_interleave;
          Alcotest.test_case "spawn during run" `Quick test_spawn_during_run;
          Alcotest.test_case "exception propagates" `Quick
            test_exception_propagates;
          Alcotest.test_case "live process count" `Quick test_live_processes;
          Alcotest.test_case "live process names" `Quick
            test_live_process_names;
          qc monotonic_time_qcheck;
        ] );
      ( "advance",
        [
          Alcotest.test_case "sibling in a delivery" `Quick
            test_in_place_sibling_in_delivery;
          Alcotest.test_case "entry due at the wake-up" `Quick
            test_in_place_entry_due_at_wake;
          Alcotest.test_case "steps" `Quick test_in_place_steps;
          qc in_place_matches_suspend_qcheck;
        ] );
      ( "event",
        [
          Alcotest.test_case "wakes all waiters" `Quick
            test_event_wakes_waiters;
          Alcotest.test_case "late waiter not woken" `Quick
            test_event_late_waiter_not_woken;
          Alcotest.test_case "delta count" `Quick test_delta_count_advances;
        ] );
      ( "mailbox",
        [
          Alcotest.test_case "fifo order" `Quick test_mailbox_fifo;
          Alcotest.test_case "blocks when full" `Quick
            test_mailbox_blocks_when_full;
        ] );
    ]
