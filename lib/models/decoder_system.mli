(** The JPEG 2000 decoder system topologies.

    Three structures cover the paper's nine models:

    - {!run_sw_only} — version 1: one Software Task runs every stage;
    - {!run_coprocessor} — versions 2 and 4: SW task(s) call a
      blocking IQ+IDWT co-processing Shared Object;
    - {!run_pipeline} — versions 3, 5, 6a, 6b, 7a, 7b: SW task(s)
      push decoded tiles into the HW/SW Shared Object; an IDWT2D
      control module takes them (IQ runs inside the object), and
      dispatches, via the IDWT-params Shared Object, to the IDWT53 or
      IDWT97 hardware block, which fetches coefficients from the
      HW/SW object, computes, and stores the result back; the SW
      task(s) collect finished tiles for ICT and DC shift.

    Whether a pipelined run is an Application-Layer or a VTA model is
    entirely decided by the {!rig}: [Direct] links make method calls
    plain arbitrated calls; [Rmi] links serialise them over a bus or
    point-to-point channel and add the full-resolution payload
    transfer; processor mapping and explicit memories likewise come
    from the rig. The behavioural code is shared — the seamless
    refinement the paper claims. *)

type comm =
  | Direct  (** Application-Layer method call *)
  | Rmi of Osss.Channel.transport  (** refined onto an OSSS Channel *)

type rig = {
  link_sw : int -> comm;  (** SW task [i] ↔ HW/SW Shared Object *)
  link_idwt : comm;  (** IDWT hardware blocks ↔ HW/SW Shared Object *)
  link_params : comm;  (** IDWT blocks ↔ IDWT-params Shared Object *)
  map_task : int -> Osss.Sw_task.t -> unit;
      (** bind SW task [i] to its processor (identity on the
          Application Layer) *)
  coeff_buffer_pass : words:int -> Sim.Sim_time.t;
      (** one streaming pass over a tile's coefficients in the IDWT
          block's working memory (zero for Application-Layer
          registers, BRAM timing after explicit memory insertion) *)
  payload_words : int;
      (** serialised tile size carried by each refined data transfer
          (0 on the Application Layer) *)
  sw_grant_overhead : clients:int -> Sim.Sim_time.t;
      (** per-access run-time cost of a {e software} client on a
          Shared Object with that many clients; the Application Layer
          uses {!Profile.so_grant_overhead}, the VTA a small constant
          (arbitration is then part of the channel model) *)
  transports : Osss.Channel.transport list;
      (** every channel of the rig, for protection setup and
          resilience-counter aggregation into {!Outcome.resilience}
          (empty on the Application Layer) *)
}

val run_sw_only : version:string -> Workload.t -> Outcome.t

val run_coprocessor : version:string -> sw_tasks:int -> Workload.t -> Outcome.t
(** An Application-Layer model only: its method calls are plain
    arbitrated calls. *)

val run_pipeline :
  version:string ->
  sw_tasks:int ->
  ?rig:(Sim.Kernel.t -> rig) ->
  ?so_policy:Osss.Arbiter.policy ->
  Workload.t ->
  Outcome.t
(** [rig] (default: the Application Layer's direct calls) refines the
    links; {!Vta_models} builds the VTA rigs. [so_policy] selects the
    HW/SW Shared Object's arbitration policy (default FCFS), which
    only [bench/main.ml]'s ablation rows vary.

    Every run, of each of the three structures, wraps each IDWT
    service interval in [Osss.Eet.ret_check] against
    {!Profile.idwt_deadline} and reports misses in
    {!Outcome.resilience} — measurement only, no simulated time is
    added. *)
