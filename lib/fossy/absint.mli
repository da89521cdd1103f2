(** Interprocedural interval + known-bits abstract interpretation
    over {!Hir}, and the synthesis optimisations it licenses.
    {!Synthesis.synthesise} runs {!optimise} and {!prune_fsm} on every
    core, and {!lint}/{!lint_fsm} are part of {!Synthesis.diagnostics}.

    The engine mirrors {!Interp} exactly: variables and arrays
    start at 0, stores wrap through the declared type (identity at
    widths >= 62), shift amounts are masked, [For] binds the loop
    variable raw, subprogram calls push frames whose params wrap on
    entry and whose result wraps through the return type. Input-port
    reads are modelled as fresh nondeterministic values of the port's
    declared range — sound whenever the stimulus is in range, which
    the testbenches and the qcheck harness guarantee.

    Loops ([For]/[While] bodies and the implicit process loop) are
    solved by fixpoint with threshold widening on the back-edge, so
    analysis terminates on every validated module. Subprogram calls
    are followed interprocedurally; past a depth cutoff (mutual
    recursion) the callee's {!Dataflow} def summary havocs the state
    instead.

    The abstract state is a pair of slot arrays. Each analysed module
    or FSM gets a slot table once: every port, variable, subprogram
    parameter or local and [For] iterator has an index into the
    scalar array, and every array an index into the array summary.
    A slot whose binding is not live (a parameter outside its call, an
    iterator outside its loop) holds top. Arrays are never mutated
    after they are built, so states share them; join, widening and
    the fixpoint test are one pass that keeps the old interval of
    every slot that did not change and returns the old state itself
    when none did. Statement paths, which only name diagnostics, are
    formatted by {!lint} alone. *)

type result = {
  var_ranges : (string * Interval.t) list;
      (** post-wrap stored values per module variable / output port,
          joined with the initial 0 *)
  raw_ranges : (string * Interval.t) list;
      (** pre-wrap assigned values — the certificate that narrowing a
          declaration is behaviour-preserving *)
  arr_ranges : (string * Interval.t) list;
      (** post-wrap element summary per array (weak updates, joined
          with the initial 0) *)
  port_ranges : (string * Interval.t) list;
      (** output ports only: every value the module can emit. Ports
          never written have no entry. *)
}

val analyse : Hir.module_def -> result
(** Requires a validated module (see {!Hir.validate}). *)

val lint : Hir.module_def -> Diagnostic.t list
(** Value-analysis diagnostics:
    - [W018] assignment whose value range never fits the target type
      (proved truncation; the constant-only case stays [W005]);
    - [W019] branch condition proved always/never taken (syntactic
      [Const] conditions excluded — those are idioms);
    - [E020] array index proved always out of range (runtime error
      whenever executed);
    - [W021] array index that may exceed the bounds. *)

val lint_fsm : Fsm.t -> Diagnostic.t list
(** [W022]: states syntactically reachable but unreachable under
    value constraints (abstract execution never enters them). *)

val optimise : Hir.module_def -> Hir.module_def
(** Behaviour-preserving shrink, run between inline and FSM
    extraction: folds proved-constant expressions, deletes
    proved-dead branches and loops, and narrows variable/array
    declarations to the proved range of their raw stored values.
    Inlines first if subprograms remain. Every rewrite preserves the
    observable trace and the crash behaviour: expressions are only
    folded or discarded when they read no input port and every array
    access in them is proved in bounds, a discarded arm never
    contains a [Wait], ports are never re-typed, and the result is
    re-validated (reverting to the input on failure). *)

val prune_fsm : Fsm.t -> Fsm.t
(** Drops states no abstract execution reaches and rewrites branches
    whose condition is proved one-sided (and side-effect-free) into
    gotos. The entry state and the trace are preserved. *)
