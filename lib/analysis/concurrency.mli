(** Concurrency diagnostics at the OSSS layer: [E014], a guard
    deadlock in the Shared-Object wait-for graph of a VTA mapping.
    That is either a guarded call on an object no other client
    accesses, or a strongly connected component of clients whose
    guard-waited objects are reachable only through guarded calls from
    inside the component. *)

val guard_deadlocks : Osss.Vta.t -> Fossy.Diagnostic.t list
(** Static analysis of {!Osss.Vta.so_accesses}. *)
