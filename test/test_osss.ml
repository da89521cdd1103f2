(* Tests for the OSSS core library (Application + VTA layer). *)

let time = Alcotest.testable Sim.Sim_time.pp Sim.Sim_time.equal
let ms = Sim.Sim_time.ms
let us = Sim.Sim_time.us
let clock_hz = 100_000_000

let run_model build =
  let k = Sim.Kernel.create () in
  build k;
  Sim.Kernel.run k;
  Sim.Kernel.now k

(* -- Arbiter ------------------------------------------------------ *)

let test_arbiter_fcfs () =
  let a = Osss.Arbiter.create Osss.Arbiter.Fcfs in
  Alcotest.(check int) "head" 3 (Osss.Arbiter.choose a ~pending:[ 3; 1; 2 ]);
  Alcotest.(check int) "empty" (-1) (Osss.Arbiter.choose a ~pending:[])

let test_arbiter_priority () =
  let a = Osss.Arbiter.create Osss.Arbiter.Static_priority in
  Alcotest.(check int) "lowest id" 1 (Osss.Arbiter.choose a ~pending:[ 3; 1; 2 ])

let test_arbiter_round_robin () =
  let a = Osss.Arbiter.create Osss.Arbiter.Round_robin in
  let grant pending =
    match Osss.Arbiter.choose a ~pending with
    | -1 -> Alcotest.fail "no grant"
    | id ->
      Osss.Arbiter.note_grant a id;
      id
  in
  Alcotest.(check int) "first grant" 0 (grant [ 0; 1; 2 ]);
  Alcotest.(check int) "next in cycle" 1 (grant [ 0; 1; 2 ]);
  Alcotest.(check int) "next again" 2 (grant [ 0; 1; 2 ]);
  Alcotest.(check int) "wraps" 0 (grant [ 0; 1; 2 ]);
  Osss.Arbiter.note_grant a 1;
  Alcotest.(check int) "skips absent" 0 (grant [ 0 ])

let round_robin_fairness_qcheck =
  QCheck.Test.make ~name:"round-robin grants everyone within one cycle"
    ~count:100
    QCheck.(pair (int_range 2 8) (int_range 2 50))
    (fun (clients, rounds) ->
      let a = Osss.Arbiter.create Osss.Arbiter.Round_robin in
      let pending = List.init clients (fun i -> i) in
      let counts = Array.make clients 0 in
      for _ = 1 to rounds * clients do
        match Osss.Arbiter.choose a ~pending with
        | -1 -> ()
        | id ->
          Osss.Arbiter.note_grant a id;
          counts.(id) <- counts.(id) + 1
      done;
      Array.for_all (fun c -> c = rounds) counts)

(* -- Lock / Shared object ----------------------------------------- *)

let test_lock_mutual_exclusion () =
  let final =
    run_model (fun k ->
        let lock =
          Osss.Lock.create k ~name:"l"
            ~arbiter:(Osss.Arbiter.create Osss.Arbiter.Fcfs)
        in
        let spawn_worker i =
          let h = Osss.Lock.register lock ~name:(Printf.sprintf "w%d" i) () in
          Sim.Kernel.spawn k (fun () ->
              Osss.Lock.with_lock lock h (fun () -> Sim.Kernel.wait_for (ms 2)))
        in
        List.iter spawn_worker [ 1; 2; 3 ])
  in
  (* Three 2 ms critical sections must serialise: 6 ms total. *)
  Alcotest.check time "serialised" (ms 6) final

let test_lock_reentry_rejected () =
  let k = Sim.Kernel.create () in
  let lock =
    Osss.Lock.create k ~name:"l" ~arbiter:(Osss.Arbiter.create Osss.Arbiter.Fcfs)
  in
  let h = Osss.Lock.register lock ~name:"w" () in
  let raised = ref false in
  Sim.Kernel.spawn k (fun () ->
      Osss.Lock.acquire lock h;
      (try Osss.Lock.acquire lock h with Invalid_argument _ -> raised := true);
      Osss.Lock.release lock h);
  Sim.Kernel.run k;
  Alcotest.(check bool) "re-acquire rejected" true !raised;
  (* One holder blocked from two processes: a release could resume
     only one of them. *)
  let other = Osss.Lock.register lock ~name:"other" () in
  let shared = ref false in
  Sim.Kernel.spawn k (fun () ->
      Osss.Lock.with_lock lock other (fun () -> Sim.Kernel.wait_for (ms 1)));
  Sim.Kernel.spawn k (fun () -> Osss.Lock.with_lock lock h ignore);
  Sim.Kernel.spawn k (fun () ->
      try Osss.Lock.with_lock lock h ignore with Invalid_argument _ -> shared := true);
  Sim.Kernel.run k;
  Alcotest.(check bool) "holder blocked twice rejected" true !shared

(* [Osss.Lock] against [Broadcast_lock], the lock that woke every
   parked holder on each release. Random holders request, hold and
   release one lock; both locks must grant the same holders in the same
   order, at the same instant and delta cycle, and end with the same
   statistics and telemetry. Only the per-process wake-up counters may
   differ: removing the losers' resumes is the point. *)

module type LOCK = sig
  type t
  type holder

  val create : Sim.Kernel.t -> name:string -> arbiter:Osss.Arbiter.t -> t

  val register : t -> name:string -> ?overhead:Sim.Sim_time.t -> unit -> holder
  val acquire : t -> holder -> unit
  val release : t -> holder -> unit
  val total_wait : t -> Sim.Sim_time.t
  val total_held : t -> Sim.Sim_time.t
end

(* What a holder does before each request. *)
type request =
  | After of int  (** wait this many ns *)
  | Next_delta  (** [wait_for] zero: the next delta cycle at the same instant *)
  | At_once  (** straight after the previous release, in the same slice *)

type lock_scenario = {
  policy : Osss.Arbiter.policy;
  holders : (int * (request * int) list) list;
      (** per holder: its own grant overhead (ns) and its
          [(before request, hold ns)] steps; a hold of 0 releases in
          the granting slice *)
}

let show_lock_scenario s =
  let request = function
    | After n -> Printf.sprintf "after %d" n
    | Next_delta -> "next delta"
    | At_once -> "at once"
  in
  Printf.sprintf "%s\n%s"
    (match s.policy with
    | Osss.Arbiter.Fcfs -> "fcfs"
    | Round_robin -> "round robin"
    | Static_priority -> "static priority")
    (String.concat "\n"
       (List.mapi
          (fun i (overhead, steps) ->
            Printf.sprintf "  h%d (+%d ns): %s" i overhead
              (String.concat "; "
                 (List.map
                    (fun (r, hold) -> Printf.sprintf "%s, hold %d" (request r) hold)
                    steps)))
          s.holders))

let lock_scenario_gen =
  let open QCheck.Gen in
  let request =
    frequency
      [ (3, map (fun n -> After n) (int_range 1 4)); (2, return Next_delta); (2, return At_once) ]
  in
  let hold = frequency [ (2, return 0); (3, int_range 1 5) ] in
  let holder = pair (oneofl [ 0; 0; 2 ]) (list_size (int_range 1 6) (pair request hold)) in
  map2
    (fun policy holders -> { policy; holders })
    (oneofl Osss.Arbiter.[ Fcfs; Round_robin; Static_priority ])
    (list_size (int_range 1 6) holder)

(* The grants (holder, ps, delta) in order, the lock's statistics, and
   the telemetry without the wake-up counters. *)
let run_lock_scenario (module L : LOCK) s =
  let ns = Sim.Sim_time.ns in
  let k = Sim.Kernel.create () in
  let grants = ref [] in
  let lock = L.create k ~name:"l" ~arbiter:(Osss.Arbiter.create s.policy) in
  let sink, () =
    Telemetry.Sink.with_sink (fun () ->
        List.iteri
          (fun i (overhead, steps) ->
            let name = Printf.sprintf "h%d" i in
            let h = L.register lock ~name ~overhead:(ns overhead) () in
            Sim.Kernel.spawn k ~name (fun () ->
                List.iter
                  (fun (request, hold) ->
                    (match request with
                    | After n -> Sim.Kernel.wait_for (ns n)
                    | Next_delta -> Sim.Kernel.wait_for Sim.Sim_time.zero
                    | At_once -> ());
                    L.acquire lock h;
                    grants :=
                      (i, Sim.Sim_time.to_ps (Sim.Kernel.now k), Sim.Kernel.delta_count k)
                      :: !grants;
                    if hold > 0 then Sim.Kernel.wait_for (ns hold);
                    L.release lock h)
                  steps))
          s.holders;
        Sim.Kernel.run k)
  in
  let counters =
    List.filter
      (fun (key, _) -> not (String.ends_with ~suffix:".wakeups" key))
      (Telemetry.Metrics.counters (Telemetry.Sink.metrics sink))
  in
  ( List.rev !grants,
    (Sim.Sim_time.to_ps (L.total_wait lock), Sim.Sim_time.to_ps (L.total_held lock)),
    counters,
    Telemetry.Chrome.to_string (Telemetry.Sink.events sink),
    Sim.Kernel.live_processes k )

(* Static priority, B above C. A holds the lock for 2 ms while C and
   then B park. A's release grants B, and C stays parked until B's
   release grants it. The broadcast lock also woke C at A's release,
   only for C to lose to B and park again. *)
let test_lock_wakes_only_the_winner () =
  let wakeups (module L : LOCK) =
    let k = Sim.Kernel.create () in
    let lock =
      L.create k ~name:"l" ~arbiter:(Osss.Arbiter.create Osss.Arbiter.Static_priority)
    in
    let holders = List.map (fun name -> (name, L.register lock ~name ())) [ "A"; "B"; "C" ] in
    let sink, () =
      Telemetry.Sink.with_sink (fun () ->
          List.iter
            (fun name ->
              let h = List.assoc name holders in
              Sim.Kernel.spawn k ~name (fun () ->
                  L.acquire lock h;
                  Sim.Kernel.wait_for (ms 2);
                  L.release lock h))
            [ "A"; "C"; "B" ];
          Sim.Kernel.run k)
    in
    List.map
      (fun (name, _) ->
        Telemetry.Metrics.counter (Telemetry.Sink.metrics sink)
          ("process." ^ name ^ ".wakeups"))
      holders
  in
  Alcotest.(check (list int)) "targeted" [ 2; 3; 3 ] (wakeups (module Osss.Lock));
  Alcotest.(check (list int)) "broadcast" [ 2; 3; 4 ]
    (wakeups (module Broadcast_lock))

let lock_matches_broadcast_qcheck =
  QCheck.Test.make ~name:"lock grants as the broadcast lock does" ~count:1000
    (QCheck.make ~print:show_lock_scenario lock_scenario_gen)
    (fun s ->
      run_lock_scenario (module Osss.Lock) s
      = run_lock_scenario (module Broadcast_lock) s)

let test_shared_object_blocking_call () =
  let result = ref 0 in
  let final =
    run_model (fun k ->
        let so =
          Osss.Shared_object.create k ~name:"so"
            ~arbiter:(Osss.Arbiter.create Osss.Arbiter.Fcfs)
            (ref 5)
        in
        let c = Osss.Shared_object.register_client so ~name:"caller" () in
        Sim.Kernel.spawn k (fun () ->
            result :=
              Osss.Shared_object.call so c ~eet:(ms 3) (fun state ->
                  state := !state * 2;
                  !state)))
  in
  Alcotest.(check int) "method result" 10 !result;
  Alcotest.check time "EET consumed" (ms 3) final

let test_shared_object_guard () =
  (* Producer/consumer through a guarded Shared Object: the consumer's
     guard only opens once the producer has stored a value. *)
  let got = ref 0 in
  let consumed_at = ref Sim.Sim_time.zero in
  let _ =
    run_model (fun k ->
        let so =
          Osss.Shared_object.create k ~name:"buffer"
            ~arbiter:(Osss.Arbiter.create Osss.Arbiter.Fcfs)
            (ref None)
        in
        let producer = Osss.Shared_object.register_client so ~name:"producer" () in
        let consumer = Osss.Shared_object.register_client so ~name:"consumer" () in
        Sim.Kernel.spawn k (fun () ->
            got :=
              Osss.Shared_object.call_guarded so consumer
                ~guard:(fun state -> !state <> None)
                (fun state ->
                  match !state with
                  | Some v ->
                    state := None;
                    v
                  | None -> assert false);
            consumed_at := Sim.Kernel.now k);
        Sim.Kernel.spawn k (fun () ->
            Sim.Kernel.wait_for (ms 7);
            Osss.Shared_object.call so producer (fun state -> state := Some 42)))
  in
  Alcotest.(check int) "value passed" 42 !got;
  Alcotest.check time "consumer woke on completion" (ms 7) !consumed_at

let test_shared_object_contention_stats () =
  let k = Sim.Kernel.create () in
  let so =
    Osss.Shared_object.create k ~name:"so"
      ~arbiter:(Osss.Arbiter.create Osss.Arbiter.Fcfs)
      ()
  in
  let spawn_client i =
    let c = Osss.Shared_object.register_client so ~name:(Printf.sprintf "c%d" i) () in
    Sim.Kernel.spawn k (fun () ->
        Osss.Shared_object.call so c ~eet:(ms 1) (fun () -> ()))
  in
  List.iter spawn_client [ 1; 2; 3 ];
  Sim.Kernel.run k;
  Alcotest.(check int) "three calls" 3 (Osss.Shared_object.calls so);
  (* Client 2 waits 1 ms, client 3 waits 2 ms. *)
  Alcotest.check time "waiting accumulated" (ms 3)
    (Osss.Shared_object.total_wait so);
  Alcotest.check time "busy accumulated" (ms 3)
    (Osss.Shared_object.total_busy so)

(* -- EET / tasks / processor -------------------------------------- *)

let test_eet_block () =
  let final =
    run_model (fun k ->
        Sim.Kernel.spawn k (fun () ->
            let v = Osss.Eet.eet (ms 4) (fun () -> 21 * 2) in
            Alcotest.(check int) "value" 42 v))
  in
  Alcotest.check time "time consumed" (ms 4) final

let test_eet_scaled () =
  Alcotest.check time "half" (ms 2) (Osss.Eet.scaled 0.5 (ms 4));
  Alcotest.check time "identity" (ms 4) (Osss.Eet.scaled 1.0 (ms 4))

let test_ret_deadline_met () =
  let result = ref 0 in
  let final =
    run_model (fun k ->
        Sim.Kernel.spawn k (fun () ->
            result :=
              Osss.Eet.ret (ms 10) (fun () -> Osss.Eet.eet (ms 4) (fun () -> 5))))
  in
  Alcotest.(check int) "value" 5 !result;
  Alcotest.check time "time consumed" (ms 4) final

let test_ret_deadline_violated () =
  let k = Sim.Kernel.create () in
  let violated = ref false in
  Sim.Kernel.spawn k (fun () ->
      try Osss.Eet.ret ~label:"tile" (ms 2) (fun () -> Osss.Eet.consume (ms 5))
      with Osss.Eet.Deadline_violation { label; required; actual } ->
        violated := true;
        Alcotest.(check string) "label" "tile" label;
        Alcotest.check time "required" (ms 2) required;
        Alcotest.check time "actual" (ms 5) actual);
  Sim.Kernel.run k;
  Alcotest.(check bool) "violation detected" true !violated

let test_ret_check_variant () =
  let k = Sim.Kernel.create () in
  Sim.Kernel.spawn k (fun () ->
      let _, ok = Osss.Eet.ret_check (ms 3) (fun () -> Osss.Eet.consume (ms 1)) in
      Alcotest.(check bool) "met" true ok;
      let _, ok = Osss.Eet.ret_check (ms 3) (fun () -> Osss.Eet.consume (ms 7)) in
      Alcotest.(check bool) "missed" false ok);
  Sim.Kernel.run k;
  (* ret_check observes: met or missed, the clock advanced by the
     bodies' time alone. *)
  Alcotest.check time "timing-neutral" (ms 8) (Sim.Kernel.now k)

let test_unmapped_tasks_run_in_parallel () =
  let final =
    run_model (fun k ->
        for i = 1 to 3 do
          ignore
            (Osss.Sw_task.create k ~name:(Printf.sprintf "t%d" i) (fun t ->
                 Osss.Sw_task.consume t (ms 10)))
        done)
  in
  Alcotest.check time "application layer: concurrent" (ms 10) final

let test_mapped_tasks_share_processor () =
  let final =
    run_model (fun k ->
        let proc =
          Osss.Processor.create k ~name:"microblaze0" ~clock_hz
        in
        for i = 1 to 3 do
          let t =
            Osss.Sw_task.create k ~name:(Printf.sprintf "t%d" i) (fun t ->
                Osss.Sw_task.consume t (ms 10))
          in
          Osss.Sw_task.map_to_processor t proc
        done)
  in
  Alcotest.check time "VTA: serialised on one CPU" (ms 30) final

let test_task_cannot_map_twice () =
  let k = Sim.Kernel.create () in
  let proc1 = Osss.Processor.create k ~name:"p1" ~clock_hz in
  let proc2 = Osss.Processor.create k ~name:"p2" ~clock_hz in
  let t = Osss.Sw_task.create k ~name:"t" (fun _ -> ()) in
  Osss.Sw_task.map_to_processor t proc1;
  Alcotest.(check bool) "mapping visible" true
    (Osss.Sw_task.processor t <> None);
  let raised =
    try
      Osss.Sw_task.map_to_processor t proc2;
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "second mapping rejected" true raised

let test_hw_module_clock_rounding () =
  let final =
    run_model (fun k ->
        let m = Osss.Hw_module.create k ~name:"idwt" ~clock_hz () in
        Osss.Hw_module.add_process m ~name:"main" (fun () ->
            (* 25 ns at 100 MHz must round up to 3 cycles = 30 ns. *)
            ignore (Osss.Hw_module.eet m (Sim.Sim_time.ns 25) (fun () -> ()))))
  in
  Alcotest.check time "rounded to cycles" (Sim.Sim_time.ns 30) final

(* -- Serialisation ------------------------------------------------ *)

let roundtrip codec v = Osss.Serialisation.(decode codec (encode codec v))

let test_serialisation_base () =
  Alcotest.(check int) "int" (-123456789) (roundtrip Osss.Serialisation.int (-123456789));
  Alcotest.(check (array int)) "int_array" [| -1; 0; 0x7FFFFFFF |]
    (roundtrip Osss.Serialisation.int_array [| -1; 0; 0x7FFFFFFF |])

(* The RMI layer times a transfer by the length of the encoding. *)
let test_serialisation_word_counts () =
  let open Osss.Serialisation in
  Alcotest.(check int) "int = 2 words" 2 (Array.length (encode int 7));
  Alcotest.(check int) "array = 1 + n" 5
    (Array.length (encode int_array [| 1; 2; 3; 4 |]))

let test_serialisation_errors () =
  let open Osss.Serialisation in
  let raised f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "element beyond 32 bits" true
    (raised (fun () -> encode int_array [| 1 lsl 40 |]));
  Alcotest.(check bool) "truncated" true
    (raised (fun () -> decode int [| 1l |]));
  Alcotest.(check bool) "trailing" true
    (raised (fun () -> decode int [| 1l; 2l; 3l |]));
  Alcotest.(check bool) "negative length" true
    (raised (fun () -> decode int_array [| -1l |]))

let int_roundtrip_qcheck =
  QCheck.Test.make ~name:"int codec round-trips" ~count:200 QCheck.int
    (fun value -> roundtrip Osss.Serialisation.int value = value)

let int_array_roundtrip_qcheck =
  QCheck.Test.make ~name:"int_array codec round-trips" ~count:200
    QCheck.(array (int_range (-1_000_000) 1_000_000))
    (fun value ->
      roundtrip Osss.Serialisation.int_array value = value)

(* -- Memory -------------------------------------------------------- *)

let test_block_ram_timing () =
  let mem = Osss.Memory.xilinx_block_ram ~data_width:32 ~addr_width:10 ~clock_hz in
  let burst = Osss.Memory.access_time mem ~words:100 in
  (* Each 100-word burst: latency 1 + 100 cycles = 101 cycles; two bursts. *)
  Alcotest.check time "burst timing"
    (Sim.Sim_time.cycles ~hz:clock_hz 202)
    (Sim.Sim_time.add burst burst)

(* -- Bus / channel ------------------------------------------------- *)

let test_bus_unloaded_time () =
  let k = Sim.Kernel.create () in
  let bus = Osss.Bus.create k ~name:"opb" ~clock_hz () in
  (* 40 words = 2 full bursts of 16 + tail of 8.
     Each burst: 2 arb + 1 addr + n data cycles. *)
  Alcotest.check time "computed"
    (Sim.Sim_time.cycles ~hz:clock_hz ((2 + 1 + 16) * 2 + (2 + 1 + 8)))
    (Osss.Bus.transfer_time_unloaded bus ~words:40)

let test_bus_transfer_matches_model () =
  let k = Sim.Kernel.create () in
  let bus = Osss.Bus.create k ~name:"opb" ~clock_hz () in
  let m = Osss.Bus.attach_master bus ~name:"cpu" in
  let expected = Osss.Bus.transfer_time_unloaded bus ~words:40 in
  Sim.Kernel.spawn k (fun () -> Osss.Bus.transfer bus m ~words:40);
  Sim.Kernel.run k;
  Alcotest.check time "idle bus matches unloaded model" expected
    (Sim.Kernel.now k)

let test_bus_contention_serialises () =
  let k = Sim.Kernel.create () in
  let bus = Osss.Bus.create k ~name:"opb" ~clock_hz () in
  let m1 = Osss.Bus.attach_master bus ~name:"m1" in
  let m2 = Osss.Bus.attach_master bus ~name:"m2" in
  let single = Osss.Bus.transfer_time_unloaded bus ~words:64 in
  let done1 = ref Sim.Sim_time.zero and done2 = ref Sim.Sim_time.zero in
  Sim.Kernel.spawn k (fun () ->
      Osss.Bus.transfer bus m1 ~words:64;
      done1 := Sim.Kernel.now k);
  Sim.Kernel.spawn k (fun () ->
      Osss.Bus.transfer bus m2 ~words:64;
      done2 := Sim.Kernel.now k);
  Sim.Kernel.run k;
  Alcotest.check time "two masters take twice as long"
    (Sim.Sim_time.mul_int single 2)
    (Sim.Kernel.now k);
  (* The bursts interleave, so each master waited for the other's. *)
  Alcotest.(check bool) "contention delays both" true
    Sim.Sim_time.(!done1 > single && !done2 > single)

let test_p2p_faster_than_contended_bus () =
  let k = Sim.Kernel.create () in
  let p2p = Osss.Channel.p2p k ~clock_hz () in
  let t = Osss.Channel.transfer_time_unloaded p2p ~words:64 in
  (* 2 setup + 64 words *)
  Alcotest.check time "p2p timing" (Sim.Sim_time.cycles ~hz:clock_hz 66) t

let test_rmi_call_over_p2p () =
  let k = Sim.Kernel.create () in
  let so =
    Osss.Shared_object.create k ~name:"coproc"
      ~arbiter:(Osss.Arbiter.create Osss.Arbiter.Fcfs)
      (ref 0)
  in
  let client = Osss.Shared_object.register_client so ~name:"sw" () in
  let transport = Osss.Channel.p2p k ~clock_hz () in
  let doubler =
    Osss.Channel.rmi_method ~name:"double" ~args:Osss.Serialisation.int_array
      ~ret:Osss.Serialisation.int_array
      ~execution_time:(fun a -> us (Array.length a))
      (fun state a ->
        incr state;
        Array.map (fun x -> 2 * x) a)
  in
  let result = ref [||] in
  Sim.Kernel.spawn k (fun () ->
      result :=
        Osss.Channel.rmi_call transport so client doubler [| 1; 2; 3 |]);
  Sim.Kernel.run k;
  Alcotest.(check (array int)) "functional result through words"
    [| 2; 4; 6 |] !result;
  Alcotest.(check int) "state mutated" 1 (Osss.Shared_object.peek so (fun r -> !r));
  (* args: 4+1 words, ret: 4+1 words, each +2 setup cycles; eet 3 us. *)
  let expected =
    Sim.Sim_time.add
      (Sim.Sim_time.cycles ~hz:clock_hz (7 + 7))
      (us 3)
  in
  Alcotest.check time "transfer + execution time" expected (Sim.Kernel.now k)

let test_rmi_guarded () =
  let k = Sim.Kernel.create () in
  let so =
    Osss.Shared_object.create k ~name:"store"
      ~arbiter:(Osss.Arbiter.create Osss.Arbiter.Fcfs)
      (ref None)
  in
  let producer = Osss.Shared_object.register_client so ~name:"p" () in
  let consumer = Osss.Shared_object.register_client so ~name:"c" () in
  let transport = Osss.Channel.p2p k ~clock_hz () in
  let put =
    Osss.Channel.rmi_method ~name:"put" ~args:Osss.Serialisation.int
      ~ret:Osss.Serialisation.int
      (fun state v ->
        state := Some v;
        v)
  in
  let take =
    Osss.Channel.rmi_method ~name:"take" ~args:Osss.Serialisation.int
      ~ret:Osss.Serialisation.int
      (fun state _ ->
        match !state with
        | Some v ->
          state := None;
          v
        | None -> assert false)
  in
  let got = ref 0 in
  Sim.Kernel.spawn k (fun () ->
      got :=
        Osss.Channel.rmi_call_guarded transport so consumer
          ~guard:(fun state -> !state <> None)
          take 0);
  Sim.Kernel.spawn k (fun () ->
      Sim.Kernel.wait_for (ms 1);
      ignore (Osss.Channel.rmi_call transport so producer put 77));
  Sim.Kernel.run k;
  Alcotest.(check int) "guarded take" 77 !got

let test_memory_access_time_zero () =
  let bram = Osss.Memory.xilinx_block_ram ~data_width:32 ~addr_width:8 ~clock_hz in
  Alcotest.check time "zero words cost nothing" Sim.Sim_time.zero
    (Osss.Memory.access_time bram ~words:0);
  Alcotest.check time "one word: latency + transfer"
    (Sim.Sim_time.cycles ~hz:clock_hz 2)
    (Osss.Memory.access_time bram ~words:1)

let test_processor_stats () =
  let k = Sim.Kernel.create () in
  let proc = Osss.Processor.create k ~name:"p" ~clock_hz in
  let t1 =
    Osss.Sw_task.create k ~name:"a" (fun t -> Osss.Sw_task.consume t (ms 3))
  in
  let t2 =
    Osss.Sw_task.create k ~name:"b" (fun t -> Osss.Sw_task.consume t (ms 5))
  in
  Osss.Sw_task.map_to_processor t1 proc;
  Osss.Sw_task.map_to_processor t2 proc;
  Sim.Kernel.run k;
  Alcotest.(check int) "two tasks registered" 2 (Osss.Processor.task_count proc);
  Alcotest.check time "busy accumulated" (ms 8) (Osss.Processor.busy_time proc);
  Alcotest.check time "wait accumulated" (ms 3) (Osss.Processor.wait_time proc);
  Alcotest.(check bool) "both finished" true
    (Osss.Sw_task.finished t1 && Osss.Sw_task.finished t2)

let test_bus_rejects_bad_config () =
  let k = Sim.Kernel.create () in
  let raised f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "bad burst" true
    (raised (fun () -> Osss.Bus.create k ~name:"x" ~clock_hz ~max_burst_words:0 ()))

let test_round_robin_grant_runs_alternate () =
  (* Under round-robin arbitration two holders with queued grant runs
     interleave fairly: both finish within one hold of each other. *)
  let k = Sim.Kernel.create () in
  let lock =
    Osss.Lock.create k ~name:"rr" ~arbiter:(Osss.Arbiter.create Osss.Arbiter.Round_robin)
  in
  let hold = Sim.Sim_time.cycles ~hz:clock_hz 19 in
  let finish name =
    let h = Osss.Lock.register lock ~name () in
    let finished = ref Sim.Sim_time.zero in
    Sim.Kernel.spawn k (fun () ->
        Osss.Lock.grant_run lock h ~hold ~count:4;
        finished := Sim.Kernel.now k);
    finished
  in
  let done1 = finish "h1" and done2 = finish "h2" in
  Sim.Kernel.run k;
  let gap =
    abs (Sim.Sim_time.to_ps !done1 - Sim.Sim_time.to_ps !done2)
  in
  Alcotest.(check bool) "fair interleaving" true (gap <= Sim.Sim_time.to_ps hold)

(* -- Bursts in rotations ---------------------------------------------- *)

(* [Bus.transfer] takes its full bursts through [Lock.grant_run], which
   takes whole arbiter rotations of the bus's masters in one kernel
   call each, and runs of idle bursts in one kernel step. Its
   reference is the per-burst loop it had before: an [acquire], an
   [Eet.consume] and a [release] per burst. Random masters move words
   between compute phases, and background processes wake on multiples
   of the burst time, so calendar entries fall exactly on burst ends.
   Both must give every completion instant at the same delta cycle, the
   same kernel counters and lock statistics, and, under a sink, the
   same Chrome trace and metrics, byte for byte. The bus is FCFS and
   has no holder overhead, so the other arbitration policies and
   overheads are drawn at the lock level, where [Lock.grant_run] is
   compared with grants one by one. *)

type burst_scenario = {
  bs_policy : Osss.Arbiter.policy;
  burst_words : int;
  masters : (int * ((int * int) * int) list) list;
      (** per master: its holder overhead (ns) and its transfers, each
          [((bursts, ns) of compute before it, words)] *)
  background : (int * int) list;
      (** per process: its period in full bursts and its step count *)
}

let show_burst_scenario s =
  let span (bursts, ns) = Printf.sprintf "%d bursts + %d ns" bursts ns in
  Printf.sprintf "%s, %d-word bursts\n%s\n%s"
    (match s.bs_policy with
    | Osss.Arbiter.Fcfs -> "fcfs"
    | Round_robin -> "round robin"
    | Static_priority -> "static priority")
    s.burst_words
    (String.concat "\n"
       (List.mapi
          (fun i (overhead, transfers) ->
            Printf.sprintf "  m%d (+%d ns): %s" i overhead
              (String.concat "; "
                 (List.map
                    (fun (compute, words) ->
                      Printf.sprintf "compute %s, %d words" (span compute) words)
                    transfers)))
          s.masters))
    (String.concat "\n"
       (List.mapi
          (fun i (period, steps) ->
            Printf.sprintf "  bg%d: %d steps of %d bursts" i steps period)
          s.background))

let all_policies = Osss.Arbiter.[ Fcfs; Round_robin; Static_priority ]

let burst_scenario_gen ~policies ~overheads ~masters:(fewest, most) ~words =
  let open QCheck.Gen in
  let span =
    frequency
      [
        (2, return (0, 0));
        (3, map (fun n -> (n, 0)) (int_range 1 40));
        (2, map2 (fun n ns -> (n, ns)) (int_range 0 40) (int_range 1 300));
      ]
  in
  (* 400 ns is longer than any burst: a holder with that overhead owns
     the lock across calendar-free stretches another could step in. *)
  let overhead = if overheads then oneofl [ 0; 0; 20; 400 ] else return 0 in
  let master = pair overhead (list_size (int_range 1 3) (pair span words)) in
  let background = pair (int_range 1 8) (int_range 1 30) in
  map2
    (fun (bs_policy, burst_words) (masters, background) ->
      { bs_policy; burst_words; masters; background })
    (pair (oneofl policies) (int_range 1 32))
    (pair
       (list_size (int_range fewest most) master)
       (list_size (int_range 0 2) background))

(* Long contention: 2-5 masters whose first transfers start within
   three bursts of each other, each moving one or two transfers of
   hundreds to thousands of words (at the lock level, tens to hundreds
   of holds of one full burst), so that most bursts are taken in
   rotations of several masters, and a rotation meets the calendar or
   a master's last burst many times per run. *)
let long_contention_gen ~policies ~words =
  let open QCheck.Gen in
  let start = pair (int_range 0 3) (frequency [ (3, return 0); (1, int_range 1 100) ]) in
  let later = pair (int_range 0 40) (frequency [ (3, return 0); (1, int_range 1 300) ]) in
  let master =
    map3
      (fun first w rest -> (0, (first, w) :: rest))
      start words
      (list_size (int_range 0 1) (pair later words))
  in
  map2
    (fun (bs_policy, burst_words) (masters, background) ->
      { bs_policy; burst_words; masters; background })
    (pair (oneofl policies) (int_range 8 32))
    (pair
       (list_size (int_range 2 5) master)
       (list_size (int_range 0 2) (pair (int_range 1 40) (int_range 1 30))))

(* How one side moves a master's words: given the kernel and a bus
   built from the scenario, a function from a master's name and
   overhead to its transfer, and the lock's statistics when the side
   can reach its lock. *)
type burst_side =
  Sim.Kernel.t ->
  Osss.Bus.t ->
  burst_scenario ->
  (name:string -> overhead:int -> int -> unit) * (unit -> (int * int) option)

let bus_side : burst_side =
 fun _ bus _ ->
  ( (fun ~name ~overhead:_ ->
      let m = Osss.Bus.attach_master bus ~name in
      fun words -> Osss.Bus.transfer bus m ~words),
    fun () -> None )

let lock_side transfer : burst_side =
 fun k bus s ->
  let lock =
    Osss.Lock.create k ~name:(Osss.Bus.name bus) ~arbiter:(Osss.Arbiter.create s.bs_policy)
  in
  ( (fun ~name ~overhead ->
      let h = Osss.Lock.register lock ~name ~overhead:(Sim.Sim_time.ns overhead) () in
      transfer bus lock h s),
    fun () ->
      Some
        ( Sim.Sim_time.to_ps (Osss.Lock.total_wait lock),
          Sim.Sim_time.to_ps (Osss.Lock.total_held lock) ) )

(* [Bus.transfer] as it was before idle bursts took one kernel step,
   on a lock with the bus's name. *)
let per_burst bus lock h s words =
  if words > 0 then begin
    if Telemetry.Sink.enabled () then begin
      Telemetry.Sink.incr ("bus." ^ Osss.Bus.name bus ^ ".transactions");
      Telemetry.Sink.incr ~by:words ("bus." ^ Osss.Bus.name bus ^ ".words")
    end;
    let remaining = ref words in
    while !remaining > 0 do
      let burst = Stdlib.min !remaining s.burst_words in
      remaining := !remaining - burst;
      Osss.Lock.acquire lock h;
      Osss.Eet.consume (Osss.Bus.transfer_time_unloaded bus ~words:burst);
      Osss.Lock.release lock h
    done
  end

(* At the lock level a transfer of [n] is [n] holds of one full burst:
   one grant at a time, or one [Lock.grant_run] of [n] holds. *)
let hold_one h lock hold =
  Osss.Lock.acquire lock h;
  Sim.Kernel.wait_for hold;
  Osss.Lock.release lock h

let holds_one_by_one bus lock h s n =
  let hold = Osss.Bus.transfer_time_unloaded bus ~words:s.burst_words in
  for _ = 1 to n do
    hold_one h lock hold
  done

let holds_in_runs bus lock h s n =
  let hold = Osss.Bus.transfer_time_unloaded bus ~words:s.burst_words in
  Osss.Lock.grant_run lock h ~hold ~count:n

let run_burst_scenario ~traced (side : burst_side) s =
  let k = Sim.Kernel.create () in
  let bus =
    Osss.Bus.create k ~name:"opb" ~clock_hz ~max_burst_words:s.burst_words ()
  in
  let burst = Osss.Bus.transfer_time_unloaded bus ~words:s.burst_words in
  let span (bursts, extra_ns) =
    Sim.Sim_time.add (Sim.Sim_time.mul_int burst bursts) (Sim.Sim_time.ns extra_ns)
  in
  let transfer, lock_stats = side k bus s in
  let log = ref [] in
  let note name step =
    log := (name, step, Sim.Sim_time.to_ps (Sim.Kernel.now k), Sim.Kernel.delta_count k) :: !log
  in
  let simulate () =
    List.iteri
      (fun i (overhead, transfers) ->
        let name = Printf.sprintf "m%d" i in
        let transfer = transfer ~name ~overhead in
        Sim.Kernel.spawn k ~name (fun () ->
            List.iteri
              (fun step (compute, words) ->
                Osss.Eet.consume (span compute);
                transfer words;
                note name step)
              transfers))
      s.masters;
    List.iteri
      (fun i (period, steps) ->
        let name = Printf.sprintf "bg%d" i in
        Sim.Kernel.spawn k ~name (fun () ->
            for step = 1 to steps do
              Osss.Eet.consume (Sim.Sim_time.mul_int burst period);
              note name step
            done))
      s.background;
    Sim.Kernel.run k
  in
  let telemetry =
    if traced then begin
      let sink, () = Telemetry.Sink.with_sink simulate in
      let report = Telemetry.Sink.report sink in
      Some
        ( Telemetry.Report.dist_sum report "lock.opb.wait_ps",
          Telemetry.Report.dist_sum report "lock.opb.held_ps",
          Telemetry.Chrome.to_string (Telemetry.Sink.events sink),
          Telemetry.Json.to_string (Telemetry.Report.to_json report) )
    end
    else begin
      simulate ();
      None
    end
  in
  ( List.rev !log,
    ( Sim.Sim_time.to_ps (Sim.Kernel.now k),
      Sim.Kernel.delta_count k,
      Sim.Kernel.time_advances k,
      Sim.Kernel.live_processes k ),
    lock_stats (),
    telemetry )

(* Untraced and traced, [side] gives what [reference] gives. Where the
   side cannot reach its lock, the statistics come from the sink. *)
let same_bursts side reference s =
  List.for_all
    (fun traced ->
      let log, kernel, stats, telemetry = run_burst_scenario ~traced side s in
      let log', kernel', stats', telemetry' = run_burst_scenario ~traced reference s in
      log = log' && kernel = kernel' && telemetry = telemetry'
      && (stats = None || stats = stats')
      &&
      match (telemetry', stats') with
      | Some (wait, held, _, _), Some stats' -> stats' = (wait, held)
      | _ -> true)
    [ false; true ]

let bus_matches_per_burst = same_bursts bus_side (lock_side per_burst)

let runs_match_one_by_one =
  same_bursts (lock_side holds_in_runs) (lock_side holds_one_by_one)

let bus_bursts_qcheck =
  QCheck.Test.make ~name:"bus bursts as the per-burst loop takes them" ~count:200
    (QCheck.make ~print:show_burst_scenario
       (burst_scenario_gen ~policies:[ Osss.Arbiter.Fcfs ] ~overheads:false
          ~masters:(1, 4)
          ~words:
            QCheck.Gen.(
              frequency [ (1, return 0); (2, int_range 1 64); (2, int_range 0 2000) ])))
    bus_matches_per_burst

let long_contention_qcheck =
  QCheck.Test.make ~name:"long contention as the per-burst loop takes it" ~count:100
    (QCheck.make ~print:show_burst_scenario
       (long_contention_gen ~policies:[ Osss.Arbiter.Fcfs ]
          ~words:QCheck.Gen.(int_range 200 4000)))
    bus_matches_per_burst

let grant_runs_qcheck =
  QCheck.Test.make ~name:"grant runs as grants one by one" ~count:200
    (QCheck.make ~print:show_burst_scenario
       (burst_scenario_gen ~policies:all_policies ~overheads:true ~masters:(2, 4)
          ~words:QCheck.Gen.(int_range 1 200)))
    runs_match_one_by_one

let long_contention_runs_qcheck =
  QCheck.Test.make ~name:"long contention runs as grants one by one" ~count:100
    (QCheck.make ~print:show_burst_scenario
       (long_contention_gen ~policies:all_policies
          ~words:QCheck.Gen.(int_range 12 250)))
    runs_match_one_by_one

(* A run of identical rotations is taken in one step, up to the first
   of three limits. Each scenario below ends such a run at the limit it
   names at least once, and must give what the per-burst loop gives
   (on the FCFS bus) or what grants one by one give (on a lock under
   another policy), untraced and traced. Bursts are 16 words, 190 ns. *)
let fixed_bursts ?(policy = Osss.Arbiter.Fcfs) ?(background = []) masters =
  {
    bs_policy = policy;
    burst_words = 16;
    masters = List.map (fun (ns, words) -> (0, [ ((0, ns), words) ])) masters;
    background;
  }

let batch_limit_scenarios =
  [
    (* m0 and m1 alternate; a background process wakes every 7
       bursts. *)
    ( "a calendar entry",
      bus_matches_per_burst,
      fixed_bursts ~background:[ (7, 3) ] [ (0, 1600); (0, 1600) ] );
    (* m1 plays out the rotations; m0, granted in them, has fewer
       bursts. *)
    ("a grantee's last hold but one", bus_matches_per_burst, fixed_bursts [ (0, 320); (10, 1600) ]);
    (* m1 plays out the rotations and has fewer bursts. *)
    ("the owner's last hold but one", bus_matches_per_burst, fixed_bursts [ (0, 1600); (10, 320) ]);
    (* Holders of 50 holds each. m3 holds first; m2, m0 and m1 request
       in that order, and m0 is granted. Its first rotation grants m1,
       m2 and m3 by id, which reorders the pending list; the later ones
       repeat. *)
    ( "a round-robin reorder",
      runs_match_one_by_one,
      fixed_bursts ~policy:Osss.Arbiter.Round_robin
        [ (20, 50); (30, 50); (10, 50); (0, 50) ] );
  ]

let test_batch_limit same s () =
  Alcotest.(check bool) "as the reference" true (same s)

(* -- Platform / VTA / report -------------------------------------- *)

let test_platform_ml401 () =
  let p = Osss.Platform.ml401 in
  Alcotest.(check int) "100 MHz" 100_000_000 p.Osss.Platform.clock_hz;
  Alcotest.(check string) "fpga" "xc4vlx25" p.Osss.Platform.fpga;
  Alcotest.check time "period" (Sim.Sim_time.ns 10) (Osss.Platform.clock_period p)

let test_vta_validate_ok () =
  let v = Osss.Vta.create Osss.Platform.ml401 in
  Osss.Vta.map_task v ~task:"decoder0" ~processor:"microblaze0";
  Osss.Vta.map_task v ~task:"decoder1" ~processor:"microblaze0";
  Osss.Vta.map_module v ~module_name:"idwt53" ~block:"block0";
  Osss.Vta.map_module v ~module_name:"idwt97" ~block:"block1";
  Osss.Vta.map_link v ~link:"sw->so" ~channel:"opb" ~kind:Osss.Vta.Shared_bus;
  Osss.Vta.map_link v ~link:"idwt->so" ~channel:"p2p0"
    ~kind:Osss.Vta.Point_to_point;
  (match Osss.Vta.validate v with
  | Ok () -> ()
  | Error es -> Alcotest.failf "unexpected errors: %s" (String.concat "; " es));
  Alcotest.(check (list string)) "processors" [ "microblaze0" ]
    (Osss.Vta.processors v)

let test_vta_validate_errors () =
  let v = Osss.Vta.create Osss.Platform.ml401 in
  Osss.Vta.map_task v ~task:"t" ~processor:"p0";
  Osss.Vta.map_task v ~task:"t" ~processor:"p1";
  Osss.Vta.map_module v ~module_name:"m1" ~block:"b";
  Osss.Vta.map_module v ~module_name:"m2" ~block:"b";
  (match Osss.Vta.validate v with
  | Ok () -> Alcotest.fail "expected errors"
  | Error es -> Alcotest.(check int) "two violations" 2 (List.length es))

let test_report_render () =
  let table =
    Osss.Report.render ~header:[ "version"; "time" ]
      [ [ "1"; "3243.1" ]; [ "2"; "2975.0" ] ]
  in
  let lines = String.split_on_char '\n' table in
  Alcotest.(check int) "4 lines + trailing" 5 (List.length lines);
  Alcotest.(check bool) "right-aligned numbers" true
    (String.length (List.nth lines 2) = String.length (List.nth lines 0))

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "osss"
    [
      ( "arbiter",
        [
          Alcotest.test_case "fcfs" `Quick test_arbiter_fcfs;
          Alcotest.test_case "static priority" `Quick test_arbiter_priority;
          Alcotest.test_case "round robin" `Quick test_arbiter_round_robin;
          qc round_robin_fairness_qcheck;
        ] );
      ( "lock",
        [
          Alcotest.test_case "mutual exclusion" `Quick
            test_lock_mutual_exclusion;
          Alcotest.test_case "re-entry rejected" `Quick
            test_lock_reentry_rejected;
          Alcotest.test_case "release wakes only the winner" `Quick
            test_lock_wakes_only_the_winner;
          qc lock_matches_broadcast_qcheck;
        ] );
      ( "shared_object",
        [
          Alcotest.test_case "blocking call with EET" `Quick
            test_shared_object_blocking_call;
          Alcotest.test_case "guarded method" `Quick test_shared_object_guard;
          Alcotest.test_case "contention statistics" `Quick
            test_shared_object_contention_stats;
        ] );
      ( "processor_stats",
        [ Alcotest.test_case "busy/wait accounting" `Quick test_processor_stats ]
      );
      ( "eet_tasks",
        [
          Alcotest.test_case "eet block" `Quick test_eet_block;
          Alcotest.test_case "eet scaling" `Quick test_eet_scaled;
          Alcotest.test_case "unmapped tasks parallel" `Quick
            test_unmapped_tasks_run_in_parallel;
          Alcotest.test_case "mapped tasks share processor" `Quick
            test_mapped_tasks_share_processor;
          Alcotest.test_case "double mapping rejected" `Quick
            test_task_cannot_map_twice;
          Alcotest.test_case "hw module clock rounding" `Quick
            test_hw_module_clock_rounding;
          Alcotest.test_case "ret deadline met" `Quick test_ret_deadline_met;
          Alcotest.test_case "ret deadline violated" `Quick
            test_ret_deadline_violated;
          Alcotest.test_case "ret_check variant" `Quick test_ret_check_variant;
        ] );
      ( "serialisation",
        [
          Alcotest.test_case "base codecs" `Quick test_serialisation_base;
          Alcotest.test_case "word counts" `Quick
            test_serialisation_word_counts;
          Alcotest.test_case "errors" `Quick test_serialisation_errors;
          qc int_roundtrip_qcheck;
          qc int_array_roundtrip_qcheck;
        ] );
      ( "memory",
        [
          Alcotest.test_case "block ram timing" `Quick test_block_ram_timing;
          Alcotest.test_case "access_time edges" `Quick
            test_memory_access_time_zero;
        ] );
      ( "bus_channel",
        [
          Alcotest.test_case "unloaded time" `Quick test_bus_unloaded_time;
          Alcotest.test_case "idle transfer matches model" `Quick
            test_bus_transfer_matches_model;
          Alcotest.test_case "contention serialises" `Quick
            test_bus_contention_serialises;
          Alcotest.test_case "p2p timing" `Quick
            test_p2p_faster_than_contended_bus;
          Alcotest.test_case "rmi over p2p" `Quick test_rmi_call_over_p2p;
          Alcotest.test_case "guarded rmi" `Quick test_rmi_guarded;
          Alcotest.test_case "bad bus configs" `Quick test_bus_rejects_bad_config;
          Alcotest.test_case "round-robin grant runs are fair" `Quick
            test_round_robin_grant_runs_alternate;
          qc bus_bursts_qcheck;
          qc long_contention_qcheck;
          qc grant_runs_qcheck;
          qc long_contention_runs_qcheck;
        ]
        @ List.map
            (fun (limit, same, s) ->
              Alcotest.test_case ("rotation runs end at " ^ limit) `Quick
                (test_batch_limit same s))
            batch_limit_scenarios );
      ( "platform_vta",
        [
          Alcotest.test_case "ml401" `Quick test_platform_ml401;
          Alcotest.test_case "valid mapping" `Quick test_vta_validate_ok;
          Alcotest.test_case "invalid mapping" `Quick test_vta_validate_errors;
          Alcotest.test_case "report rendering" `Quick test_report_render;
        ] );
    ]
