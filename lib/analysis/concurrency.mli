(** Concurrency diagnostics at the OSSS and simulation layers.

    - [E014] — guard deadlock in the Shared-Object wait-for graph of a
      VTA mapping: either a guarded call on an object no other client
      accesses, or a strongly connected component of clients whose
      guard-waited objects are reachable only through guarded calls
      from inside the component;
    - [E015] — delta-cycle write-write race recorded by the simulation
      kernel (two processes drove one signal in the same evaluation
      phase). *)

val guard_deadlocks : Osss.Vta.t -> Fossy.Diagnostic.t list
(** Static analysis of {!Osss.Vta.so_accesses}. *)

val diag_of_race : Sim.Kernel.race -> Fossy.Diagnostic.t
(** One recorded (or raised) race as an [E015] diagnostic. *)

val race_diagnostics : Sim.Kernel.t -> Fossy.Diagnostic.t list
(** Renders the races a kernel recorded under
    {!Sim.Kernel.Race_record} into diagnostics. *)
