(** Facade of the analysis layer: one call per artefact kind, all
    returning {!Fossy.Diagnostic.t} lists sorted errors-first. The
    HIR and FSM passes belong to the FOSSY flow
    ({!Fossy.Synthesis.diagnostics}); this layer adds the checks that
    span other layers: generated VHDL and VTA mappings.

    Diagnostic catalogue: [E000] structural validation (relayed from
    {!Fossy.Hir.validate}), [W001]/[W002] possibly-uninitialised
    reads, [W003] dead assignment, [W004] unreachable statement,
    [W005] constant overflow, [E006] over-wide shift, [W007]
    signed/unsigned comparison, [E008] wait-free loop path, [E009]
    call cycle, [E010] input port driven, [E011]/[W015] undriven
    output, [W012] unreachable FSM state, [W013] unread register,
    [E014] guard deadlock, [W017] unused VHDL signal, and the
    value-analysis findings of {!Fossy.Absint}: [W018] proved
    truncation at assignment, [W019] branch proved always/never
    taken, [E020]/[W021] proved/possible out-of-range array index,
    [W022] FSM state unreachable under value constraints. *)

val lint_module : Fossy.Hir.module_def -> Fossy.Diagnostic.t list
(** Structural validation ([E000]) + {!Fossy.Synthesis.diagnostics}. *)

val lint_design : Rtl.Vhdl.design -> Fossy.Diagnostic.t list
val lint_vta : Osss.Vta.t -> Fossy.Diagnostic.t list

val install : unit -> unit
(** Does nothing: synthesis runs its lints and optimiser itself. Kept
    only because the benchmark harness ([bench/e2e/workloads.ml])
    still calls it; the next change to the benchmark deletes that call
    and this function. *)
