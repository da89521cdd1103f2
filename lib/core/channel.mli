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
    receiver, and recovers from detected corruption within the fixed
    budget of {!Crc_retry}: a timeout, exponential backoff and at
    most 8 retransmissions. All
    recovery costs are paid in simulated time at the transport's
    clock, and counted in {!stats}. The default is {!Unprotected},
    whose timing is bit-for-bit the seed behaviour. *)

type transport

val bus_transport : Bus.t -> Bus.master -> transport

val p2p : Sim.Kernel.t -> ?clock_hz:int -> ?name:string -> unit -> transport
(** Dedicated point-to-point link: no arbitration; a transfer of
    [words > 0] costs 2 setup cycles and one cycle per word at
    [clock_hz]. Defaults: 100 MHz, name ["p2p"]. *)

val transfer : transport -> words:int -> unit
(** Raw timed transfer (process context). Never protected, never
    faulted — use {!payload_transfer} for frames that should be. *)

val transfer_time_unloaded : transport -> words:int -> Sim.Sim_time.t

(** {1 Hardened RMI} *)

type protection =
  | Unprotected
      (** Seed behaviour: frames travel bare, corruption (if a fault
          hook is installed) reaches the deserialiser undetected. *)
  | Crc_retry
      (** A CRC word on every frame, and a fixed recovery budget: a
          frame that fails verification costs a 64-cycle detection
          timeout and a backoff of [16 * 2{^n}] cycles before retry
          [n], and the transfer gives up after 8 retransmissions. *)

val describe_protection : protection -> string
(** The campaign header's words for the mode, with the [Crc_retry]
    budget: ["CRC/retry channels (max 8 retries, 64-cycle timeout,
    16-cycle backoff)"]. *)

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
(** Raised by a protected transfer once its first attempt and all 8
    retransmissions have arrived corrupted ([attempts = 9]). *)

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
