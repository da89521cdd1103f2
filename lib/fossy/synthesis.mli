(** FOSSY driver: end-to-end high-level synthesis.

    validate → lint ({!diagnostics}) → inline subprograms → optimise
    ({!Absint.optimise}) → extract FSM ({!Absint.prune_fsm}) → emit
    VHDL → estimate RTL synthesis results (area / f_max on the
    Virtex-4 model). The same estimation is applied to hand-written
    reference VHDL for the Table 2 comparison; reference designs keep
    their multi-process structure and are therefore costed without
    cross-state operator sharing. *)

type result = {
  module_name : string;
  systemc_loc : int;  (** size of the behavioural input model *)
  fsm : Fsm.t;
  vhdl : Rtl.Vhdl.design;
  vhdl_text : string;
  vhdl_loc : int;
  summary : Rtl.Netlist.summary;
  area : Rtl.Area.report;
  fmax_mhz : float;
  unopt_summary : Rtl.Netlist.summary;
      (** netlist of the straight inline → FSM chain, before the
          value-analysis optimiser ran *)
  unopt_area : Rtl.Area.report;
      (** area of [unopt_summary] — the baseline the optimiser's
          LUT/FF win is measured against *)
  warnings : string list;
      (** rendered non-blocking findings of {!diagnostics} *)
}

val diagnostics : Hir.module_def -> Diagnostic.t list
(** The semantic lints synthesis runs after {!Hir.validate}:
    {!Hir_lint.run}, {!Absint.lint} and, when FSM extraction of the
    inlined module succeeds, {!Fsm_lint.run} and {!Absint.lint_fsm}.
    Sorted errors-first and de-duplicated. Any error-severity finding
    blocks synthesis. *)

val optimise : Hir.module_def -> Hir.module_def
(** The HIR optimiser run between inline and FSM extraction
    ({!Absint.optimise}). *)

val synthesise : Hir.module_def -> (result, string list) Stdlib.result
(** The full flow. [Error] carries validation failures or the rendered
    error-severity {!diagnostics}. *)

type reference_result = {
  ref_name : string;
  ref_vhdl_loc : int;
  ref_summary : Rtl.Netlist.summary;
  ref_area : Rtl.Area.report;
  ref_fmax_mhz : float;
}

val analyse_reference : Rtl.Vhdl.design -> reference_result
(** RTL-synthesis estimation of a hand-crafted VHDL design. *)
