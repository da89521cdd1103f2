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

let test_run_until () =
  let k = Sim.Kernel.create () in
  let count = ref 0 in
  Sim.Kernel.spawn k (fun () ->
      let rec loop () =
        Sim.Kernel.wait_for (ms 1);
        incr count;
        loop ()
      in
      loop ());
  Sim.Kernel.run ~until:(us 3500) k;
  Alcotest.(check int) "ticks before horizon" 3 !count;
  Alcotest.check time "clamped to horizon" (us 3500) (Sim.Kernel.now k);
  (* Resuming continues from where we stopped. *)
  Sim.Kernel.run ~until:(ms 10) k;
  Alcotest.(check int) "ticks after resume" 10 !count

let test_stop () =
  let k = Sim.Kernel.create () in
  let count = ref 0 in
  Sim.Kernel.spawn k (fun () ->
      let rec loop () =
        Sim.Kernel.wait_for (ms 1);
        incr count;
        if !count = 4 then Sim.Kernel.stop k;
        loop ()
      in
      loop ());
  Sim.Kernel.run k;
  Alcotest.(check int) "stopped after 4" 4 !count

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
      Sim.Kernel.yield ();
      Sim.Event.notify e);
  Sim.Kernel.run k;
  Alcotest.(check bool) "several delta cycles ran" true
    (Sim.Kernel.delta_count k >= 2)

let test_event_immediate_notify () =
  let k = Sim.Kernel.create () in
  let e = Sim.Event.create k () in
  let woke_in_delta = ref (-1) in
  Sim.Kernel.spawn k (fun () ->
      Sim.Event.wait e;
      woke_in_delta := Sim.Kernel.delta_count k);
  Sim.Kernel.spawn k (fun () -> Sim.Event.notify_immediate e);
  Sim.Kernel.run k;
  (* Immediate notification delivers within the first delta cycle. *)
  Alcotest.(check int) "same evaluation phase" 0 !woke_in_delta

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

let test_event_timed_notify () =
  let k = Sim.Kernel.create () in
  let e = Sim.Event.create k () in
  let at = ref Sim.Sim_time.zero in
  Sim.Kernel.spawn k (fun () ->
      Sim.Event.wait e;
      at := Sim.Kernel.now k);
  Sim.Kernel.spawn k (fun () -> Sim.Event.notify_after e (ms 4));
  Sim.Kernel.run k;
  Alcotest.check time "woken at 4 ms" (ms 4) !at

let test_wait_any () =
  let k = Sim.Kernel.create () in
  let e1 = Sim.Event.create k () and e2 = Sim.Event.create k () in
  let at = ref Sim.Sim_time.zero in
  Sim.Kernel.spawn k (fun () ->
      Sim.Event.wait_any [ e1; e2 ];
      at := Sim.Kernel.now k);
  Sim.Kernel.spawn k (fun () -> Sim.Event.notify_after e2 (ms 2));
  Sim.Kernel.spawn k (fun () -> Sim.Event.notify_after e1 (ms 9));
  Sim.Kernel.run k;
  Alcotest.check time "earliest wins" (ms 2) !at

(* -- Signal ------------------------------------------------------- *)

let test_signal_update_semantics () =
  let k = Sim.Kernel.create () in
  let s = Sim.Signal.create k 0 in
  let observed_same_phase = ref (-1) in
  let observed_after = ref (-1) in
  Sim.Kernel.spawn k (fun () ->
      Sim.Signal.write s 42;
      observed_same_phase := Sim.Signal.value s;
      Sim.Kernel.yield ();
      observed_after := Sim.Signal.value s);
  Sim.Kernel.run k;
  Alcotest.(check int) "write invisible in same phase" 0 !observed_same_phase;
  Alcotest.(check int) "visible one delta later" 42 !observed_after

let test_signal_last_write_wins () =
  let k = Sim.Kernel.create () in
  let s = Sim.Signal.create k 0 in
  Sim.Kernel.spawn k (fun () ->
      Sim.Signal.write s 1;
      Sim.Signal.write s 2;
      Sim.Kernel.yield ();
      Alcotest.(check int) "last write" 2 (Sim.Signal.value s));
  Sim.Kernel.run k

let test_signal_change_event () =
  let k = Sim.Kernel.create () in
  let s = Sim.Signal.create k 0 in
  let changes = ref 0 in
  Sim.Kernel.spawn k (fun () ->
      let rec loop () =
        Sim.Signal.wait_change s;
        incr changes;
        loop ()
      in
      loop ());
  Sim.Kernel.spawn k (fun () ->
      Sim.Kernel.wait_for (ms 1);
      Sim.Signal.write s 5;
      Sim.Kernel.wait_for (ms 1);
      (* Writing an equal value is not a change. *)
      Sim.Signal.write s 5;
      Sim.Kernel.wait_for (ms 1);
      Sim.Signal.write s 6);
  Sim.Kernel.run k;
  Alcotest.(check int) "two real changes" 2 !changes

let test_signal_wait_value () =
  let k = Sim.Kernel.create () in
  let s = Sim.Signal.create k 0 in
  let at = ref Sim.Sim_time.zero in
  Sim.Kernel.spawn k (fun () ->
      Sim.Signal.wait_value s (fun v -> v >= 3);
      at := Sim.Kernel.now k);
  Sim.Kernel.spawn k (fun () ->
      for v = 1 to 5 do
        Sim.Kernel.wait_for (ms 1);
        Sim.Signal.write s v
      done);
  Sim.Kernel.run k;
  Alcotest.check time "threshold reached at 3 ms" (ms 3) !at

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

(* -- Clock ---------------------------------------------------------- *)

let test_clock_edges () =
  let k = Sim.Kernel.create () in
  let clk = Sim.Clock.create k ~period:(ns 10) ~until:(ns 95) () in
  Sim.Kernel.run k;
  (* Rising edges at 0, 10, ..., 90. *)
  Alcotest.(check int) "ten rising edges" 10 (Sim.Clock.edges clk)

let test_clock_wait_cycles () =
  let k = Sim.Kernel.create () in
  let clk = Sim.Clock.create k ~period:(ns 10) ~until:(ns 200) () in
  let at = ref Sim.Sim_time.zero in
  Sim.Kernel.spawn k (fun () ->
      Sim.Clock.wait_cycles clk 5;
      at := Sim.Kernel.now k);
  Sim.Kernel.run k;
  (* Process registers at t=0 after the first edge fired; it sees the
     edges at 10,20,30,40,50. *)
  Alcotest.check time "five edges later" (ns 50) !at

let test_clock_signal_follows () =
  let k = Sim.Kernel.create () in
  let clk = Sim.Clock.create k ~period:(ns 10) ~duty:0.3 ~until:(ns 9) () in
  let high_at = ref Sim.Sim_time.zero and low_at = ref Sim.Sim_time.zero in
  Sim.Kernel.spawn k (fun () ->
      Sim.Signal.wait_value (Sim.Clock.signal clk) (fun v -> v);
      high_at := Sim.Kernel.now k;
      Sim.Signal.wait_value (Sim.Clock.signal clk) not;
      low_at := Sim.Kernel.now k);
  Sim.Kernel.run k;
  Alcotest.check time "high from t=0" Sim.Sim_time.zero !high_at;
  Alcotest.check time "low after 30% duty" (ns 3) !low_at

let test_clock_invalid () =
  let k = Sim.Kernel.create () in
  Alcotest.(check bool) "zero period rejected" true
    (try ignore (Sim.Clock.create k ~period:Sim.Sim_time.zero ()); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad duty rejected" true
    (try ignore (Sim.Clock.create k ~period:(ns 10) ~duty:1.5 ()); false
     with Invalid_argument _ -> true)

(* -- Vcd ----------------------------------------------------------- *)

(* An 8-bit counter steps 0 -> 1 -> 2 -> 3 one ms apart, then a flag
   rises in the same instant as the last step. *)
let records_changes_vcd () =
  let k = Sim.Kernel.create () in
  let v = Sim.Vcd.create k () in
  let s1 = Sim.Signal.create k ~name:"counter" 0 in
  let s2 = Sim.Signal.create k ~name:"flag" false in
  Sim.Vcd.probe_int v ~name:"counter" ~width:8 s1;
  Sim.Vcd.probe_bool v ~name:"flag" s2;
  Sim.Kernel.spawn k (fun () ->
      for i = 1 to 3 do
        Sim.Kernel.wait_for (ms 1);
        Sim.Signal.write s1 i
      done;
      Sim.Signal.write s2 true);
  Sim.Kernel.run k;
  v

let test_vcd_records_changes () =
  let v = records_changes_vcd () in
  Alcotest.(check int) "four changes" 4 (Sim.Vcd.change_count v);
  let text = Sim.Vcd.render v in
  List.iter
    (fun fragment ->
      if not (Str_util.contains text fragment) then
        Alcotest.failf "VCD missing %S" fragment)
    [
      "$timescale 1ps $end";
      "$var wire 8 ! counter $end";
      "$var wire 1 \" flag $end";
      "$dumpvars";
      "#1000000000";
      "b00000011 !";
    ]

(* The whole document of the "records changes" scenario, recorded
   before the signal-level and span-depth writers shared one renderer:
   the file viewers open must not change under that refactoring. *)
let test_vcd_records_changes_bytes () =
  Alcotest.(check string) "document"
    {|$date
  (simulation)
$end
$version
  osss-jpeg2000 sim kernel
$end
$timescale 1ps $end
$scope module top $end
$var wire 8 ! counter $end
$var wire 1 " flag $end
$upscope $end
$enddefinitions $end
$dumpvars
b00000000 !
b0 "
$end
#1000000000
b00000001 !
#2000000000
b00000010 !
#3000000000
b00000011 !
b1 "
|}
    (Sim.Vcd.render (records_changes_vcd ()))

let test_vcd_rejects_duplicates () =
  let k = Sim.Kernel.create () in
  let v = Sim.Vcd.create k () in
  let s = Sim.Signal.create k 0 in
  Sim.Vcd.probe_int v ~name:"x" ~width:4 s;
  Alcotest.(check bool) "duplicate rejected" true
    (try
       Sim.Vcd.probe_int v ~name:"x" ~width:4 s;
       false
     with Invalid_argument _ -> true)

let test_vcd_zero_change_render () =
  let k = Sim.Kernel.create () in
  let v = Sim.Vcd.create k () in
  let s = Sim.Signal.create k 5 in
  Sim.Vcd.probe_int v ~name:"quiet" ~width:4 s;
  Sim.Kernel.run k;
  Alcotest.(check int) "no changes recorded" 0 (Sim.Vcd.change_count v);
  let text = Sim.Vcd.render v in
  (* Headers and the initial $dumpvars snapshot still render. *)
  List.iter
    (fun fragment ->
      if not (Str_util.contains text fragment) then
        Alcotest.failf "VCD missing %S" fragment)
    [ "$enddefinitions $end"; "$dumpvars"; "b0101 !" ];
  Alcotest.(check bool) "no time markers after the initial dump" false
    (Str_util.contains text "\n#")

let test_vcd_probe_projection_width () =
  let k = Sim.Kernel.create () in
  let v = Sim.Vcd.create k () in
  let s = Sim.Signal.create k (0, 0) in
  (* Custom projection: dump only the second tuple component, truncated
     to the declared 4-bit width. *)
  Sim.Vcd.probe v ~name:"snd" ~width:4 snd s;
  Sim.Kernel.spawn k (fun () ->
      Sim.Kernel.wait_for (ms 1);
      Sim.Signal.write s (7, 0x1f));
  Sim.Kernel.run k;
  let text = Sim.Vcd.render v in
  Alcotest.(check bool) "declared width in header" true
    (Str_util.contains text "$var wire 4 ! snd $end");
  Alcotest.(check bool) "value truncated to width" true
    (Str_util.contains text "b1111 !");
  Alcotest.(check bool) "non-positive width rejected" true
    (try
       Sim.Vcd.probe v ~name:"bad" ~width:0 snd s;
       false
     with Invalid_argument _ -> true)

let test_vcd_negative_values () =
  let k = Sim.Kernel.create () in
  let v = Sim.Vcd.create k () in
  let s = Sim.Signal.create k 0 in
  Sim.Vcd.probe_int v ~name:"sgn" ~width:4 s;
  Sim.Kernel.spawn k (fun () ->
      Sim.Kernel.wait_for (ms 1);
      Sim.Signal.write s (-1));
  Sim.Kernel.run k;
  Alcotest.(check bool) "two's complement" true
    (Str_util.contains (Sim.Vcd.render v) "b1111 !")

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
          Alcotest.test_case "run until horizon" `Quick test_run_until;
          Alcotest.test_case "stop" `Quick test_stop;
          Alcotest.test_case "spawn during run" `Quick test_spawn_during_run;
          Alcotest.test_case "exception propagates" `Quick
            test_exception_propagates;
          Alcotest.test_case "live process count" `Quick test_live_processes;
          Alcotest.test_case "live process names" `Quick
            test_live_process_names;
          qc monotonic_time_qcheck;
        ] );
      ( "event",
        [
          Alcotest.test_case "wakes all waiters" `Quick
            test_event_wakes_waiters;
          Alcotest.test_case "late waiter not woken" `Quick
            test_event_late_waiter_not_woken;
          Alcotest.test_case "timed notify" `Quick test_event_timed_notify;
          Alcotest.test_case "wait_any" `Quick test_wait_any;
          Alcotest.test_case "delta count" `Quick test_delta_count_advances;
          Alcotest.test_case "immediate notify" `Quick
            test_event_immediate_notify;
        ] );
      ( "signal",
        [
          Alcotest.test_case "update semantics" `Quick
            test_signal_update_semantics;
          Alcotest.test_case "last write wins" `Quick
            test_signal_last_write_wins;
          Alcotest.test_case "change event" `Quick test_signal_change_event;
          Alcotest.test_case "wait_value" `Quick test_signal_wait_value;
        ] );
      ( "mailbox",
        [
          Alcotest.test_case "fifo order" `Quick test_mailbox_fifo;
          Alcotest.test_case "blocks when full" `Quick
            test_mailbox_blocks_when_full;
        ] );
      ( "clock",
        [
          Alcotest.test_case "edge count" `Quick test_clock_edges;
          Alcotest.test_case "wait_cycles" `Quick test_clock_wait_cycles;
          Alcotest.test_case "signal follows" `Quick test_clock_signal_follows;
          Alcotest.test_case "invalid configs" `Quick test_clock_invalid;
        ] );
      ( "vcd",
        [
          Alcotest.test_case "records changes" `Quick test_vcd_records_changes;
          Alcotest.test_case "records changes bytes" `Quick
            test_vcd_records_changes_bytes;
          Alcotest.test_case "rejects duplicates" `Quick
            test_vcd_rejects_duplicates;
          Alcotest.test_case "zero-change render" `Quick
            test_vcd_zero_change_render;
          Alcotest.test_case "probe projection width" `Quick
            test_vcd_probe_projection_width;
          Alcotest.test_case "negative values" `Quick test_vcd_negative_values;
        ] );
    ]
