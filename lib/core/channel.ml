type kind =
  | Bus_link of Bus.t * Bus.master
  | P2p of { kernel : Sim.Kernel.t; clock_hz : int }

type protection =
  | Unprotected
  | Crc_retry of {
      max_retries : int;
      timeout_cycles : int;
      backoff_base_cycles : int;
    }

type stats = {
  mutable frames : int;
  mutable crc_errors : int;
  mutable retries : int;
  mutable giveups : int;
  mutable retry_time : Sim.Sim_time.t;
}

type transport = {
  kind : kind;
  link_name : string;
  mutable protection : protection;
  stats : stats;
}

exception Transfer_failed of { link : string; what : string; attempts : int }

let fresh_stats () =
  { frames = 0; crc_errors = 0; retries = 0; giveups = 0;
    retry_time = Sim.Sim_time.zero }

let make kind link_name =
  { kind; link_name; protection = Unprotected; stats = fresh_stats () }

let bus_transport bus master = make (Bus_link (bus, master)) (Bus.name bus)

let p2p kernel ?(clock_hz = 100_000_000) ?(name = "p2p") () =
  if clock_hz <= 0 then invalid_arg "Channel.p2p: clock_hz";
  make (P2p { kernel; clock_hz }) name

(* A point-to-point transfer: 2 setup cycles and one cycle per word. *)
let p2p_cycles ~words = 2 + words

let kernel_of t =
  match t.kind with
  | Bus_link (bus, _) -> Bus.kernel bus
  | P2p { kernel; _ } -> kernel

let now_ps t = Sim.Sim_time.to_ps (Sim.Kernel.now (kernel_of t))

let crc_retry ?(max_retries = 8) ?(timeout_cycles = 64)
    ?(backoff_base_cycles = 16) () =
  if max_retries < 0 then invalid_arg "Channel.crc_retry: max_retries";
  if timeout_cycles < 0 then invalid_arg "Channel.crc_retry: timeout_cycles";
  if backoff_base_cycles < 0 then
    invalid_arg "Channel.crc_retry: backoff_base_cycles";
  Crc_retry { max_retries; timeout_cycles; backoff_base_cycles }

let set_protection t p = t.protection <- p
let stats t = t.stats

let clock_hz t =
  match t.kind with
  | Bus_link (bus, _) -> Bus.clock_hz bus
  | P2p { clock_hz; _ } -> clock_hz

let transfer t ~words =
  if words < 0 then invalid_arg "Channel.transfer: negative word count";
  if words > 0 then
    Telemetry.Sink.incr ~by:words ("channel." ^ t.link_name ^ ".words");
  match t.kind with
  | Bus_link (bus, master) -> Bus.transfer bus master ~words
  | P2p { clock_hz; _ } ->
    if words > 0 then Eet.consume (Sim.Sim_time.cycles ~hz:clock_hz (p2p_cycles ~words))

let transfer_time_unloaded t ~words =
  if words < 0 then invalid_arg "Channel.transfer_time_unloaded: negative"
  else
    match t.kind with
    | Bus_link (bus, _) -> Bus.transfer_time_unloaded bus ~words
    | P2p { clock_hz; _ } ->
      if words = 0 then Sim.Sim_time.zero
      else Sim.Sim_time.cycles ~hz:clock_hz (p2p_cycles ~words)

(* -- protected transfers ------------------------------------------- *)

(* Retry bookkeeping shared by the data-carrying and timing-only
   protected paths. [attempt n] performs one transmission and returns
   [Some v] on success, [None] on a detected corruption; on [None]
   the caller pays the detection timeout, an exponential backoff, and
   retries until the budget is exhausted. The retransmission time is
   real simulated time — retries are never free. *)
let with_retries t ~what ~max_retries ~timeout_cycles ~backoff_base_cycles
    attempt =
  let hz = clock_hz t in
  let started =
    try Some (Sim.Kernel.now (Sim.Kernel.self ())) with _ -> None
  in
  let rec go n =
    t.stats.frames <- t.stats.frames + 1;
    Telemetry.Sink.incr ("channel." ^ t.link_name ^ ".frames");
    match attempt n with
    | Some v ->
      (match started with
      | Some t0 when n > 0 ->
        let now = Sim.Kernel.now (Sim.Kernel.self ()) in
        t.stats.retry_time <-
          Sim.Sim_time.add t.stats.retry_time (Sim.Sim_time.sub now t0)
      | _ -> ());
      v
    | None ->
      t.stats.crc_errors <- t.stats.crc_errors + 1;
      if Telemetry.Sink.enabled () then begin
        Telemetry.Sink.incr ("channel." ^ t.link_name ^ ".crc_errors");
        Telemetry.Span.instant ~ts_ps:(now_ps t) ~cat:"fault"
          ~args:
            [ ("link", Telemetry.Event.Str t.link_name);
              ("what", Telemetry.Event.Str what);
              ("attempt", Telemetry.Event.Int (n + 1)) ]
          "crc_error"
      end;
      Eet.consume (Sim.Sim_time.cycles ~hz timeout_cycles);
      if n >= max_retries then begin
        t.stats.giveups <- t.stats.giveups + 1;
        Telemetry.Sink.incr ("channel." ^ t.link_name ^ ".giveups");
        raise (Transfer_failed { link = t.link_name; what; attempts = n + 1 })
      end;
      t.stats.retries <- t.stats.retries + 1;
      Telemetry.Sink.incr ("channel." ^ t.link_name ^ ".retries");
      Eet.consume (Sim.Sim_time.cycles ~hz (backoff_base_cycles * (1 lsl Stdlib.min n 16)));
      go (n + 1)
  in
  go 0

(* One extra protocol word carries the method id in each direction. *)
let protocol_words = 1

(* Send a serialised payload over the channel and return what the
   receiver deserialises. Unprotected: the words travel as they are
   (a fault hook may corrupt them — detection is then the decoder's
   problem, typically an [Invalid_argument] from {!Serialisation}).
   Protected: CRC framing, verification, timeout + bounded retry with
   exponential backoff. *)
let send_words t ~what payload =
  let corrupt arr =
    match Fault_hooks.channel () with
    | None -> arr
    | Some f -> f ~link:t.link_name arr
  in
  match t.protection with
  | Unprotected ->
    t.stats.frames <- t.stats.frames + 1;
    Telemetry.Sink.incr ("channel." ^ t.link_name ^ ".frames");
    transfer t ~words:(Array.length payload + protocol_words);
    corrupt payload
  | Crc_retry { max_retries; timeout_cycles; backoff_base_cycles } ->
    with_retries t ~what ~max_retries ~timeout_cycles ~backoff_base_cycles
      (fun _n ->
        let framed = Crc.frame payload in
        transfer t ~words:(Array.length framed + protocol_words);
        Crc.check (corrupt framed))

(* Timing-only bulk frame (tile payload): no words are materialised,
   the frame hook decides the fate of each attempt. *)
let payload_transfer t ~words =
  if words < 0 then invalid_arg "Channel.payload_transfer: negative word count";
  if words > 0 then begin
    let span_start = if Telemetry.Sink.enabled () then now_ps t else 0 in
    let fate () =
      match Fault_hooks.frame () with
      | None -> false
      | Some f -> f ~link:t.link_name ~words
    in
    (match t.protection with
    | Unprotected ->
      t.stats.frames <- t.stats.frames + 1;
      Telemetry.Sink.incr ("channel." ^ t.link_name ^ ".frames");
      transfer t ~words;
      ignore (fate ())
    | Crc_retry { max_retries; timeout_cycles; backoff_base_cycles } ->
      with_retries t ~what:"payload" ~max_retries ~timeout_cycles
        ~backoff_base_cycles (fun _n ->
          transfer t ~words:(words + 1) (* + CRC word *);
          if fate () then None else Some ()));
    if Telemetry.Sink.enabled () then
      Telemetry.Span.complete ~ts_ps:span_start
        ~dur_ps:(now_ps t - span_start) ~cat:"comm"
        ~args:[ ("words", Telemetry.Event.Int words) ]
        ("payload:" ^ t.link_name)
  end

(* -- remote method invocation --------------------------------------- *)

type ('state, 'a, 'b) rmi_method = {
  method_name : string;
  args_codec : 'a Serialisation.codec;
  ret_codec : 'b Serialisation.codec;
  execution_time : 'a -> Sim.Sim_time.t;
  body : 'state -> 'a -> 'b;
}

let rmi_method ~name ~args ~ret
    ?(execution_time = fun _ -> Sim.Sim_time.zero) body =
  {
    method_name = name;
    args_codec = args;
    ret_codec = ret;
    execution_time;
    body;
  }

let rmi_transaction transport so client m args ~call =
  let span_start =
    if Telemetry.Sink.enabled () then now_ps transport else 0
  in
  let encoded_args = Serialisation.encode m.args_codec args in
  let arrived = send_words transport ~what:(m.method_name ^ ":args") encoded_args in
  let received_args = Serialisation.decode m.args_codec arrived in
  let eet = m.execution_time received_args in
  let result = call so client ~eet (fun state -> m.body state received_args) in
  let encoded_ret = Serialisation.encode m.ret_codec result in
  let returned = send_words transport ~what:(m.method_name ^ ":ret") encoded_ret in
  if Telemetry.Sink.enabled () then
    Telemetry.Span.complete ~ts_ps:span_start
      ~dur_ps:(now_ps transport - span_start) ~cat:"rmi"
      ~args:[ ("link", Telemetry.Event.Str transport.link_name) ]
      ("rmi:" ^ m.method_name);
  Serialisation.decode m.ret_codec returned

let rmi_call transport so client m args =
  rmi_transaction transport so client m args ~call:(fun so client ~eet f ->
      Shared_object.call so client ~eet f)

let rmi_call_guarded transport so client ~guard m args =
  rmi_transaction transport so client m args
    ~call:(fun so client ~eet f -> Shared_object.call_guarded so client ~guard ~eet f)
