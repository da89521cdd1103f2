(** Behavioural-level diagnostic suite over the HIR.

    Dataflow-backed passes (on {!Dataflow} CFGs):
    - [W001]/[W002] — variable/array may be read before any write;
    - [W003] — dead assignment (value never read; port writes and
      module state written from subprograms are exempt);
    - [W004] — unreachable statement (constant-aware paths).

    Width lints:
    - [W005] — constant does not fit the declared type (assignments,
      call arguments, comparisons);
    - [E006] — shift amount ≥ operand width;
    - [W007] — comparison mixes signed and unsigned operands.

    Synthesisability:
    - [E008] — some path through a [While] body has no [Wait]
      (path-sensitive sharpening of the [Hir.validate] check);
    - [E009] — recursive subprogram call cycle;
    - [E010] — write to an input port;
    - [E011]/[W015] — output port never driven (error when it is also
      read back, warning otherwise). *)

val run : Hir.module_def -> Diagnostic.t list
(** All passes; result sorted errors-first and de-duplicated. Assumes
    the module passes {!Hir.validate} (unknown names are not
    re-reported here). *)
