(** OSSS Channels: RMI transport for refined communication links.

    On the Application Layer a method call on a Shared Object is a
    plain (arbitrated, blocking) function call. The VTA refinement
    maps each communication link onto an OSSS Channel; the Remote
    Method Invocation protocol then

    + serialises the arguments into 32-bit words (plus one protocol
      word carrying the method id),
    + moves them over the channel's physical transport — a shared bus
      or a dedicated point-to-point link,
    + executes the method under the Shared Object's arbiter exactly
      as before, and
    + serialises and returns the result.

    Because the method body is untouched, swapping a bus for a P2P
    link (models 6a vs 6b, 7a vs 7b) changes only timing — the
    paper's seamless-refinement claim.

    {2 Hardened mode}

    A transport optionally runs in a {!protection} mode that appends
    a {!Crc} word to every serialised frame, verifies it at the
    receiver, and recovers from detected corruption with a timeout,
    a bounded number of retransmissions and exponential backoff. All
    recovery costs are paid in simulated time at the transport's
    clock, and counted in {!stats}. The default is {!Unprotected},
    whose timing is bit-for-bit the seed behaviour. *)

type transport

val bus_transport : Bus.t -> Bus.master -> transport

val p2p :
  Sim.Kernel.t ->
  ?clock_hz:int ->
  ?cycles_per_word:int ->
  ?setup_cycles:int ->
  ?name:string ->
  unit ->
  transport
(** Dedicated point-to-point link: no arbitration; a transfer costs
    [setup_cycles + words * cycles_per_word] at [clock_hz]. Defaults:
    100 MHz, 1 cycle/word, 2 setup cycles, name ["p2p"]. *)

val transfer : transport -> words:int -> unit
(** Raw timed transfer (process context). Never protected, never
    faulted — use {!payload_transfer} for frames that should be. *)

val transfer_time_unloaded : transport -> words:int -> Sim.Sim_time.t

(** {1 Hardened RMI} *)

type protection =
  | Unprotected
      (** Seed behaviour: frames travel bare, corruption (if a fault
          hook is installed) reaches the deserialiser undetected. *)
  | Crc_retry of {
      max_retries : int;  (** retransmissions before giving up *)
      timeout_cycles : int;
          (** cycles to detect a bad frame before reacting *)
      backoff_base_cycles : int;
          (** backoff before retry [n] is [base * 2{^n}] cycles *)
    }

val crc_retry :
  ?max_retries:int ->
  ?timeout_cycles:int ->
  ?backoff_base_cycles:int ->
  unit ->
  protection
(** [Crc_retry] with defaults 8 retries, 64-cycle timeout, 16-cycle
    backoff base. *)

val set_protection : transport -> protection -> unit

type stats = {
  mutable frames : int;  (** transmission attempts (incl. retries) *)
  mutable crc_errors : int;  (** frames that failed verification *)
  mutable retries : int;  (** retransmissions performed *)
  mutable giveups : int;  (** transfers abandoned after the budget *)
  mutable retry_time : Sim.Sim_time.t;
      (** simulated time spent on transfers that needed recovery *)
}

val stats : transport -> stats

exception Transfer_failed of { link : string; what : string; attempts : int }
(** Raised by a protected transfer once [max_retries] retransmissions
    have all arrived corrupted. *)

val payload_transfer : transport -> words:int -> unit
(** Timed transfer of one timing-only bulk frame (e.g. a tile
    payload) that participates in fault injection and protection:
    the frame fate comes from {!Fault_hooks.frame}; under [Crc_retry]
    a corrupted attempt costs timeout + backoff + retransmission and
    may end in {!Transfer_failed}. Unprotected with no hook installed
    this is exactly [transfer]. *)

(** {1 Remote method invocation} *)

type ('state, 'a, 'b) rmi_method = {
  method_name : string;
  args_codec : 'a Serialisation.codec;
  ret_codec : 'b Serialisation.codec;
  execution_time : 'a -> Sim.Sim_time.t;
      (** the method's EET on its implementation resource *)
  body : 'state -> 'a -> 'b;
}

val rmi_method :
  name:string ->
  args:'a Serialisation.codec ->
  ret:'b Serialisation.codec ->
  ?execution_time:('a -> Sim.Sim_time.t) ->
  ('state -> 'a -> 'b) ->
  ('state, 'a, 'b) rmi_method

val rmi_call :
  transport ->
  'state Shared_object.t ->
  Shared_object.client ->
  ('state, 'a, 'b) rmi_method ->
  'a ->
  'b
(** Performs the full refined call. The argument and result values
    actually travel through their word encodings, so a codec mismatch
    is a simulation failure, not a silent approximation. Under a
    {!Fault_hooks.channel} hook the words may be corrupted in flight;
    {!Crc_retry} protection detects and repairs that at a measured
    retransmission cost. *)

val rmi_call_guarded :
  transport ->
  'state Shared_object.t ->
  Shared_object.client ->
  guard:('state -> bool) ->
  ('state, 'a, 'b) rmi_method ->
  'a ->
  'b
