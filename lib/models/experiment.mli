(** Experiment driver: run any model version by name and check the
    qualitative relations the paper reports. *)

type version = V1 | V2 | V3 | V4 | V5 | V6a | V6b | V7a | V7b
(** The nine models of Table 1. The Application-Layer versions (upper
    half):
    - version 1: software only;
    - version 2: HW/SW, not parallel (blocking IQ+IDWT co-processor);
    - version 3: HW/SW parallel (pipeline, 3 IDWT modules);
    - version 4: SW parallel (4 decoder tasks, cp. version 2);
    - version 5: SW & HW/SW parallel (cp. version 3, 7-client SO).

    Versions 6a–7b (lower half) refine 3 and 5 onto the Virtual Target
    Architecture; {!Vta_models} describes them. *)

val all_versions : version list
val version_name : version -> string
val version_of_name : string -> version option

val sw_parallel_tasks : int
(** The Software Tasks of versions 4, 5 and 7a/7b: 4, the most the case
    study maps. *)

val run_workload :
  ?protection:Osss.Channel.protection ->
  ?idwt_deadline:Sim.Sim_time.t ->
  version ->
  Workload.t ->
  Outcome.t
(** Run one model version on an existing (possibly corrupted)
    workload. [protection] hardens every VTA channel (ignored by the
    Application-Layer versions, whose links are direct calls). *)

val run : ?payload:bool -> ?pool:Par.Pool.t -> version -> Profile.mode -> Outcome.t
(** Runs the 16-tile, 3-component workload on the given model.
    [payload] (default true) carries the real image data through the
    stages and verifies the decode bit-exactly. [pool] parallelises
    the payload decode inside the workload (bit-identical results). *)

val run_many :
  ?payload:bool -> ?pool:Par.Pool.t -> version list -> Profile.mode -> Outcome.t list
(** Runs each listed version on its own freshly made workload,
    fanning the versions out over [pool] (simulations are independent;
    telemetry and fault state are domain-local). Outcomes are in list
    order and identical to running the versions sequentially. *)

val run_all : ?payload:bool -> ?pool:Par.Pool.t -> Profile.mode -> Outcome.t list
(** All nine versions, in Table 1 order. *)

type relation_check = { relation : string; holds : bool; detail : string }

val paper_relations : Outcome.t list -> Outcome.t list -> relation_check list
(** [paper_relations lossless lossy] evaluates the orderings and
    factors the paper's text states (v2 ≈ +10/19 %, v3 < v2, v4 ≈
    4.5/5×, v5 slower than v4, IDWT inflation ≤ 8× from 3 to 6a,
    6b = 7b, 7a > 6a, HW IDWT 12/16× vs software). Each list must be
    the output of {!run_all}. *)
