type result = {
  module_name : string;
  systemc_loc : int;
  fsm : Fsm.t;
  vhdl : Rtl.Vhdl.design;
  vhdl_text : string;
  vhdl_loc : int;
  summary : Rtl.Netlist.summary;
  area : Rtl.Area.report;
  fmax_mhz : float;
  unopt_summary : Rtl.Netlist.summary;
  unopt_area : Rtl.Area.report;
  warnings : string list;
}

let diagnostics m =
  (* FSM extraction can legitimately fail on modules the HIR lints
     already reject (e.g. wait-free loops); those passes have reported
     the cause, so extraction failure is not itself a finding. *)
  let fsm_ds =
    match Fsm.of_module (Inline.run m) with
    | fsm -> Fsm_lint.run fsm @ Absint.lint_fsm fsm
    | exception _ -> []
  in
  List.sort_uniq Diagnostic.compare (Hir_lint.run m @ Absint.lint m @ fsm_ds)

let optimise = Absint.optimise

let cost fsm =
  let vhdl = Codegen.run fsm in
  let vhdl_text = Rtl.Vhdl_pp.emit vhdl in
  let summary = Rtl.Netlist.of_design vhdl in
  let area = Rtl.Area.estimate ~sharing:Rtl.Area.Shared summary in
  let fmax_mhz =
    Rtl.Timing_model.estimate_mhz ~sharing:Rtl.Area.Shared summary
  in
  (vhdl, vhdl_text, summary, area, fmax_mhz)

let synthesise m =
  match Hir.validate m with
  | Error es -> Error es
  | Ok () ->
    let errors, warnings =
      List.partition Diagnostic.is_error (diagnostics m)
    in
    if errors <> [] then Error (List.map Diagnostic.render errors)
    else
      let systemc_loc = Hir_pp.loc m in
      let inlined = Inline.run m in
      let _, _, unopt_summary, unopt_area, _ = cost (Fsm.of_module inlined) in
      let fsm = Absint.prune_fsm (Fsm.of_module (Absint.optimise inlined)) in
      let vhdl, vhdl_text, summary, area, fmax_mhz = cost fsm in
      Ok
        {
          module_name = m.Hir.m_name;
          systemc_loc;
          fsm;
          vhdl;
          vhdl_text;
          vhdl_loc = Rtl.Vhdl_pp.loc vhdl;
          summary;
          area;
          fmax_mhz;
          unopt_summary;
          unopt_area;
          warnings = List.map Diagnostic.render warnings;
        }

type reference_result = {
  ref_name : string;
  ref_vhdl_loc : int;
  ref_summary : Rtl.Netlist.summary;
  ref_area : Rtl.Area.report;
  ref_fmax_mhz : float;
}

let analyse_reference design =
  let summary = Rtl.Netlist.of_design design in
  {
    ref_name = design.Rtl.Vhdl.entity.Rtl.Vhdl.ent_name;
    ref_vhdl_loc = Rtl.Vhdl_pp.loc design;
    ref_summary = summary;
    ref_area = Rtl.Area.estimate ~sharing:Rtl.Area.Flat summary;
    ref_fmax_mhz = Rtl.Timing_model.estimate_mhz ~sharing:Rtl.Area.Flat summary;
  }
