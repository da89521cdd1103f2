(** OSSS Shared Objects.

    A Shared Object is a passive component: it never initiates
    execution, it only services blocking method calls from active
    components (modules and Software Tasks). Concurrent access is
    serialised by an {!Arbiter.t}; methods may be {e guarded} — a
    caller whose guard does not hold releases the object and retries
    when any method call completes (OSSS guard semantics).

    On the Application Layer clients call methods directly via
    {!call} / {!call_guarded}. After communication refinement the
    same methods are invoked through OSSS Channels ({!Channel.rmi_call}),
    which adds serialisation and transport time but leaves the
    behavioural code untouched — the paper's "seamless refinement". *)

type 'state t
type client

val create :
  Sim.Kernel.t ->
  name:string ->
  arbiter:Arbiter.t ->
  ?grant_overhead:Sim.Sim_time.t ->
  'state ->
  'state t
(** [grant_overhead] models per-grant arbitration latency; it is what
    makes many-client Shared Objects slower (paper's version 5). *)

val register_client :
  _ t -> name:string -> ?overhead:Sim.Sim_time.t -> unit -> client
(** Declares a port-to-interface binding. Each active component that
    calls the object needs its own client handle. [overhead] is
    per-grant scheduling time charged to this client on top of the
    object's global [grant_overhead] — software clients going through
    the OSSS run-time pay it, hardware blocks with dedicated ports
    typically do not. *)

val peek : 'state t -> ('state -> 'a) -> 'a
(** Unsynchronised, zero-time read of the object state. For test
    assertions and instrumentation only — real accesses go through
    {!call}. *)

val call :
  'state t ->
  client ->
  ?eet:Sim.Sim_time.t ->
  ('state -> 'a) ->
  'a
(** [call so c f] blocks until the arbiter grants [c] exclusive
    access, optionally consumes [eet] (the method's execution time on
    its implementation resource), runs [f] on the state, then
    releases the object. Blocking, as all OSSS method calls are. *)

val call_guarded :
  'state t ->
  client ->
  guard:('state -> bool) ->
  ?eet:Sim.Sim_time.t ->
  ('state -> 'a) ->
  'a
(** Like {!call}, but the method body only runs when [guard] holds.
    If the guard fails the object is released and the caller sleeps
    until some method call completes, then re-arbitrates. *)

(** {1 Statistics} *)

val calls : _ t -> int
val total_wait : _ t -> Sim.Sim_time.t
(** Total time callers spent waiting for a grant. *)

val total_busy : _ t -> Sim.Sim_time.t
(** Total time the object was executing or held. *)
