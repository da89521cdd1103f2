(* Tests for the analysis layer: dataflow framework, the diagnostic
   suite on HIR/FSM/VHDL, the OSSS guard-deadlock detector, and the
   synthesis lint gate. *)

open Fossy.Hir
module D = Fossy.Diagnostic

let codes ds = List.map (fun d -> d.D.code) ds
let has code ds = List.mem code (codes ds)

let str_contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let check_has label code ds =
  if not (has code ds) then
    Alcotest.failf "%s: expected %s among [%s]" label code
      (String.concat "; " (List.map D.render ds))

let check_lacks label code ds =
  if has code ds then
    Alcotest.failf "%s: unexpected %s: %s" label code
      (String.concat "; "
         (List.map D.render (List.filter (fun d -> d.D.code = code) ds)))

let check_no_errors label ds =
  match D.errors ds with
  | [] -> ()
  | es ->
    Alcotest.failf "%s: unexpected errors: %s" label
      (String.concat "; " (List.map D.render es))

(* A minimal well-formed scaffold the fixtures perturb. *)
let fixture ?(ports = []) ?(vars = []) ?(arrays = []) ?(subs = []) body =
  {
    m_name = "fix";
    m_ports = ports;
    m_vars = vars;
    m_arrays = arrays;
    m_subprograms = subs;
    m_body = body;
  }

let lint = Analysis.Lint.lint_module

(* -- dataflow framework -------------------------------------------- *)

let test_dataflow_uninit_sets () =
  let m =
    fixture
      ~vars:[ ("x", int_ty 8); ("y", int_ty 8) ]
      [ assign "x" (c 1); assign "y" (v "x"); Wait ]
  in
  let cfg = Fossy.Dataflow.of_body m in
  let sol =
    Fossy.Dataflow.maybe_uninit cfg
      ~at_entry:(Fossy.Dataflow.Names.of_list [ "x"; "y" ])
  in
  let node =
    Array.to_list cfg.Fossy.Dataflow.nodes
    |> List.find (fun n -> n.Fossy.Dataflow.path = "fix/body/1")
  in
  let before = sol.Fossy.Dataflow.before.(node.Fossy.Dataflow.id) in
  Alcotest.(check bool)
    "x defined before its read" false
    (Fossy.Dataflow.Names.mem "x" before);
  Alcotest.(check bool)
    "y still undefined there" true
    (Fossy.Dataflow.Names.mem "y" before)

let test_dataflow_back_edge_liveness () =
  (* x is written at the bottom of the process loop and read at the
     top: the exit→entry back edge must keep the write live. *)
  let m =
    fixture
      ~ports:[ ("dout", Pout, int_ty 8) ]
      ~vars:[ ("x", int_ty 8) ]
      [ assign "dout" (v "x"); Wait; assign "x" (v "x" +: c 1); Wait ]
  in
  check_lacks "loop-carried value" "W003" (lint m)

(* -- HIR diagnostics: one failing fixture per kind ------------------ *)

let test_uninit_var_read () =
  let m =
    fixture
      ~ports:[ ("dout", Pout, int_ty 8) ]
      ~vars:[ ("x", int_ty 8) ]
      [ assign "dout" (v "x"); Wait ]
  in
  let ds = lint m in
  check_has "uninit var" "W001" ds;
  let d = List.find (fun d -> d.D.code = "W001") ds in
  Alcotest.(check string) "path points at the read" "fix/body/0" d.D.path

let test_uninit_array_read () =
  let m =
    fixture
      ~ports:[ ("dout", Pout, int_ty 8) ]
      ~arrays:[ ("buf", int_ty 8, 4) ]
      [ assign "dout" (Arr ("buf", c 0)); Wait ]
  in
  check_has "uninit array" "W002" (lint m)

let test_uninit_clean_after_write () =
  let m =
    fixture
      ~ports:[ ("dout", Pout, int_ty 8) ]
      ~vars:[ ("x", int_ty 8) ]
      [ assign "x" (c 1); assign "dout" (v "x"); Wait ]
  in
  check_lacks "initialised var" "W001" (lint m)

let test_dead_assignment () =
  let m =
    fixture
      ~ports:[ ("dout", Pout, int_ty 16) ]
      ~vars:[ ("x", int_ty 16) ]
      [ assign "x" (c 1); assign "x" (c 2); assign "dout" (v "x"); Wait ]
  in
  let ds = lint m in
  check_has "overwritten before read" "W003" ds;
  let d = List.find (fun d -> d.D.code = "W003") ds in
  Alcotest.(check string) "first assignment flagged" "fix/body/0" d.D.path

let test_port_write_never_dead () =
  let m =
    fixture
      ~ports:[ ("dout", Pout, int_ty 16) ]
      [ assign "dout" (c 1); assign "dout" (c 2); Wait ]
  in
  check_lacks "output writes observable" "W003" (lint m)

let test_unreachable_statement () =
  let m =
    fixture
      ~vars:[ ("x", int_ty 8) ]
      [ If (c 0, [ assign "x" (c 1) ], [ assign "x" (c 2) ]); Wait ]
  in
  let ds = lint m in
  check_has "const-false then-arm" "W004" ds;
  Alcotest.(check bool)
    "the then-arm is the flagged one" true
    (List.exists
       (fun d -> d.D.code = "W004" && d.D.path = "fix/body/0/then/0")
       ds)

let test_width_constant_overflow () =
  let m =
    fixture ~vars:[ ("x", int_ty 4) ] [ assign "x" (c 100); Wait ]
  in
  check_has "100 into int<4>" "W005" (lint m)

let test_width_call_argument () =
  let sub =
    {
      s_name = "f";
      s_params = [ ("p", int_ty 8) ];
      s_ret = None;
      s_locals = [];
      s_body = [ Wait ];
    }
  in
  let m = fixture ~subs:[ sub ] [ Call_p ("f", [ c 300 ]); Wait ] in
  check_has "300 into int<8> parameter" "W005" (lint m)

let test_width_constant_fits () =
  let m = fixture ~vars:[ ("x", int_ty 4) ] [ assign "x" (c 7); Wait ] in
  check_lacks "7 fits int<4>" "W005" (lint m)

let test_shift_exceeds_width () =
  let m =
    fixture
      ~vars:[ ("x", int_ty 8); ("y", int_ty 8) ]
      [ assign "x" (c 1); assign "y" (v "x" >>: 9); Wait ]
  in
  let ds = lint m in
  check_has "shift by 9 on int<8>" "E006" ds;
  let m_ok =
    fixture
      ~vars:[ ("x", int_ty 8); ("y", int_ty 8) ]
      [ assign "x" (c 1); assign "y" (v "x" >>: 7); Wait ]
  in
  check_lacks "shift by 7 on int<8>" "E006" (lint m_ok)

let test_signed_unsigned_comparison () =
  let m =
    fixture
      ~vars:[ ("x", int_ty 8); ("u", uint_ty 8) ]
      [
        assign "x" (c 1);
        assign "u" (c 1);
        If (v "x" <: v "u", [ Wait ], [ Wait ]);
      ]
  in
  check_has "int<8> < uint<8>" "W007" (lint m);
  let m_ok =
    fixture
      ~vars:[ ("x", int_ty 8); ("y", int_ty 8) ]
      [
        assign "x" (c 1);
        assign "y" (c 1);
        If (v "x" <: v "y", [ Wait ], [ Wait ]);
      ]
  in
  check_lacks "same signedness" "W007" (lint m_ok)

let test_wait_free_loop_path () =
  let m =
    fixture
      ~ports:[ ("go", Pin, uint_ty 1); ("sel", Pin, uint_ty 1) ]
      [ While (v "go", [ If (v "sel", [ Wait ], []) ]) ]
  in
  (* Hir.validate accepts this (a Wait exists somewhere in the body);
     only the path-sensitive pass sees the wait-free else path. *)
  (match validate m with
  | Ok () -> ()
  | Error es -> Alcotest.failf "validate should accept: %s" (String.concat "; " es));
  check_has "wait only on one branch" "E008" (lint m);
  let m_ok =
    fixture
      ~ports:[ ("go", Pin, uint_ty 1); ("sel", Pin, uint_ty 1) ]
      [ While (v "go", [ If (v "sel", [ Wait ], [ Wait ]) ]) ]
  in
  check_lacks "wait on both branches" "E008" (lint m_ok)

let test_call_cycle () =
  let proc name callee =
    {
      s_name = name;
      s_params = [];
      s_ret = None;
      s_locals = [];
      s_body = [ Call_p (callee, []) ];
    }
  in
  let m = fixture ~subs:[ proc "f" "g"; proc "g" "f" ] [ Wait ] in
  check_has "f <-> g" "E009" (lint m)

let test_call_chain_clean () =
  let proc name body =
    { s_name = name; s_params = []; s_ret = None; s_locals = []; s_body = body }
  in
  let m =
    fixture
      ~subs:[ proc "f" [ Call_p ("g", []) ]; proc "g" [] ]
      [ Call_p ("f", []); Wait ]
  in
  check_lacks "acyclic calls" "E009" (lint m)

let test_write_to_input_port () =
  let m =
    fixture ~ports:[ ("din", Pin, int_ty 8) ] [ assign "din" (c 0); Wait ]
  in
  check_has "input driven from inside" "E010" (lint m)

let test_undriven_output_read () =
  let m =
    fixture
      ~ports:[ ("dout", Pout, int_ty 8) ]
      ~vars:[ ("x", int_ty 8) ]
      [ assign "x" (v "dout"); Wait ]
  in
  check_has "read of undriven output" "E011" (lint m)

let test_undriven_output_unread () =
  let m = fixture ~ports:[ ("dout", Pout, int_ty 8) ] [ Wait ] in
  let ds = lint m in
  check_has "undriven output warning" "W015" ds;
  check_lacks "not the error form" "E011" ds

(* -- FSM diagnostics ------------------------------------------------ *)

let test_fsm_unreachable_state () =
  let fsm =
    {
      Fossy.Fsm.fsm_name = "fsmfix";
      inputs = [];
      outputs = [];
      vars = [];
      arrays = [];
      states =
        [|
          { Fossy.Fsm.actions = []; next = Fossy.Fsm.Branch (Const 0, 1, 2) };
          { Fossy.Fsm.actions = []; next = Fossy.Fsm.Goto 0 };
          { Fossy.Fsm.actions = []; next = Fossy.Fsm.Goto 0 };
        |];
      entry = 0;
    }
  in
  (* The structural reachability of the synthesis flow follows both
     branch arms; the lint is constant-aware and sees state 1 dead. *)
  Alcotest.(check bool)
    "Fsm.reachable_states is not const-aware" true
    (Fossy.Fsm.reachable_states fsm).(1);
  let ds = Fossy.Fsm_lint.run fsm in
  Alcotest.(check bool)
    "state 1 unreachable" true
    (List.exists
       (fun d -> d.D.code = "W012" && d.D.path = "fsmfix/state-1")
       ds)

let test_fsm_unread_register () =
  let fsm =
    {
      Fossy.Fsm.fsm_name = "fsmfix";
      inputs = [ ("go", uint_ty 1) ];
      outputs = [];
      vars = [ ("r", int_ty 8); ("s", int_ty 8) ];
      arrays = [];
      states =
        [|
          {
            Fossy.Fsm.actions = [ Fossy.Fsm.Do (Lv_var "r", c 1) ];
            next = Fossy.Fsm.Branch (v "s", 0, 0);
          };
        |];
      entry = 0;
    }
  in
  let ds = Fossy.Fsm_lint.run fsm in
  Alcotest.(check bool)
    "r written but never read" true
    (List.exists (fun d -> d.D.code = "W013" && d.D.path = "fsmfix/r") ds);
  Alcotest.(check bool)
    "s read by the branch" false
    (List.exists (fun d -> d.D.code = "W013" && d.D.path = "fsmfix/s") ds)

(* -- VHDL diagnostics ----------------------------------------------- *)

let vhdl_design ?(ports = []) ?(decls = []) processes =
  {
    Rtl.Vhdl.entity = { Rtl.Vhdl.ent_name = "vfix"; ports };
    architecture = { Rtl.Vhdl.arch_name = "rtl"; arch_decls = decls; processes };
  }

let test_vhdl_input_driven () =
  let d =
    vhdl_design
      ~ports:
        [ { Rtl.Vhdl.port_name = "din"; dir = Rtl.Vhdl.In; ptype = Rtl.Vhdl.Std_logic } ]
      [
        Rtl.Vhdl.combinational_process ~name:"bad" ~sensitivity:[ "din" ]
          [ Rtl.Vhdl.Sig_assign ("din", Rtl.Vhdl.Bit_lit '0') ];
      ]
  in
  check_has "drives its own input" "E010" (Analysis.Lint.lint_design d)

let test_vhdl_undriven_output () =
  let d =
    vhdl_design
      ~ports:
        [
          { Rtl.Vhdl.port_name = "dout"; dir = Rtl.Vhdl.Out; ptype = Rtl.Vhdl.Std_logic };
          { Rtl.Vhdl.port_name = "aux"; dir = Rtl.Vhdl.Out; ptype = Rtl.Vhdl.Std_logic };
        ]
      [
        Rtl.Vhdl.combinational_process ~name:"p" ~sensitivity:[ "dout" ]
          [ Rtl.Vhdl.Null_s ];
      ]
  in
  let ds = Analysis.Lint.lint_design d in
  check_has "read but undriven" "E011" ds;
  check_has "unread and undriven" "W015" ds

let test_vhdl_unused_signal () =
  let d =
    vhdl_design
      ~decls:[ Rtl.Vhdl.Signal_d ("ghost", Rtl.Vhdl.Std_logic, None) ]
      []
  in
  check_has "declared, never used" "W017" (Analysis.Lint.lint_design d)

(* -- OSSS guard deadlocks ------------------------------------------- *)

let test_guard_deadlock_cycle () =
  let vta = Osss.Vta.create Osss.Platform.ml401 in
  Osss.Vta.record_so_access vta ~client:"A" ~so:"s1" ~guarded:true;
  Osss.Vta.record_so_access vta ~client:"B" ~so:"s1" ~guarded:true;
  check_has "two guarded clients, nobody completes" "E014"
    (Analysis.Lint.lint_vta vta)

let test_guard_deadlock_isolated () =
  let vta = Osss.Vta.create Osss.Platform.ml401 in
  Osss.Vta.record_so_access vta ~client:"A" ~so:"s1" ~guarded:true;
  check_has "guard nobody can enable" "E014" (Analysis.Lint.lint_vta vta)

let test_guard_deadlock_clean () =
  let vta = Osss.Vta.create Osss.Platform.ml401 in
  Osss.Vta.record_so_access vta ~client:"A" ~so:"s1" ~guarded:true;
  Osss.Vta.record_so_access vta ~client:"B" ~so:"s1" ~guarded:false;
  check_lacks "B's plain call enables A" "E014" (Analysis.Lint.lint_vta vta)

let test_wait_graph_export () =
  let vta = Models.Vta_models.mapping ~sw_tasks:2 ~idwt_p2p:true in
  let graph = Osss.Vta.wait_graph vta in
  let edges c = try List.assoc c graph with Not_found -> [] in
  Alcotest.(check bool)
    "decoder0 guard-waits on hwsw_so" true
    (List.mem ("hwsw_so", true) (edges "decoder0"));
  Alcotest.(check bool)
    "idwt53 streams unguarded on hwsw_so" true
    (List.mem ("hwsw_so", false) (edges "idwt53"))

(* -- Hir.validate extensions ---------------------------------------- *)

let test_validate_cross_category_duplicate () =
  let m =
    fixture
      ~ports:[ ("n", Pin, int_ty 8) ]
      ~arrays:[ ("n", int_ty 8, 4) ]
      [ Wait ]
  in
  match validate m with
  | Ok () -> Alcotest.fail "port/array name clash must be rejected"
  | Error es ->
    Alcotest.(check bool)
      "mentions the duplicate" true
      (List.exists (fun e -> str_contains e "duplicate") es)

let test_validate_local_shadowing () =
  let sub =
    {
      s_name = "f";
      s_params = [ ("total", int_ty 8) ];
      s_ret = None;
      s_locals = [];
      s_body = [];
    }
  in
  let m = fixture ~vars:[ ("total", int_ty 8) ] ~subs:[ sub ] [ Wait ] in
  (match validate m with
  | Ok () -> Alcotest.fail "parameter shadowing a module variable must be rejected"
  | Error _ -> ());
  let sub_dup =
    {
      s_name = "g";
      s_params = [ ("p", int_ty 8) ];
      s_ret = None;
      s_locals = [ ("p", int_ty 8) ];
      s_body = [];
    }
  in
  match validate (fixture ~subs:[ sub_dup ] [ Wait ]) with
  | Ok () -> Alcotest.fail "parameter/local duplicate must be rejected"
  | Error _ -> ()

let test_validate_reversed_for () =
  let m = fixture [ For ("i", 5, 2, [ Wait ]) ] in
  match validate m with
  | Ok () -> Alcotest.fail "reversed For bounds must be rejected"
  | Error es ->
    Alcotest.(check bool)
      "names the loop" true
      (List.exists (fun e -> str_contains e "reversed") es)

(* -- synthesis gate -------------------------------------------------- *)

let test_synthesis_rejects_lint_error () =
  let m =
    fixture ~ports:[ ("din", Pin, int_ty 8) ] [ assign "din" (c 0); Wait ]
  in
  (* Structurally valid — only the semantic lints object. *)
  (match validate m with
  | Ok () -> ()
  | Error es -> Alcotest.failf "validate should accept: %s" (String.concat "; " es));
  match Fossy.Synthesis.synthesise m with
  | Ok _ -> Alcotest.fail "synthesis must reject an E010 module"
  | Error es ->
    Alcotest.(check bool)
      "error names the lint code" true
      (List.exists (fun e -> str_contains e "E010") es)

let test_synthesis_passes_warnings_through () =
  match Fossy.Synthesis.synthesise Models.Idwt_cores.idwt53_systemc with
  | Error es -> Alcotest.failf "idwt53 must synthesise: %s" (String.concat "; " es)
  | Ok r ->
    List.iter
      (fun w ->
        Alcotest.(check bool)
          "warnings are warning-severity renderings" true
          (String.length w > 7 && String.sub w 0 7 = "warning"))
      r.Fossy.Synthesis.warnings

(* -- clean-pass properties over the repo's real designs ------------- *)

let test_cores_lint_error_free () =
  List.iter
    (fun (label, hir) -> check_no_errors label (lint hir))
    [
      ("idwt53", Models.Idwt_cores.idwt53_systemc);
      ("idwt97", Models.Idwt_cores.idwt97_systemc);
    ]

let test_references_lint_error_free () =
  List.iter
    (fun (label, d) -> check_no_errors label (Analysis.Lint.lint_design d))
    [
      ("idwt53_ref", Models.Idwt_cores.idwt53_reference);
      ("idwt97_ref", Models.Idwt_cores.idwt97_reference);
    ]

let test_generated_vhdl_lint_error_free () =
  List.iter
    (fun (label, hir) ->
      match Fossy.Synthesis.synthesise hir with
      | Error es -> Alcotest.failf "%s: %s" label (String.concat "; " es)
      | Ok r ->
        check_no_errors label (Analysis.Lint.lint_design r.Fossy.Synthesis.vhdl))
    [
      ("idwt53", Models.Idwt_cores.idwt53_systemc);
      ("idwt97", Models.Idwt_cores.idwt97_systemc);
    ]

let test_vta_mappings_deadlock_free () =
  List.iter
    (fun (sw_tasks, idwt_p2p) ->
      check_no_errors
        (Printf.sprintf "mapping tasks=%d p2p=%b" sw_tasks idwt_p2p)
        (Analysis.Lint.lint_vta (Models.Vta_models.mapping ~sw_tasks ~idwt_p2p)))
    [ (1, false); (1, true); (4, false); (4, true) ]

let () =
  Alcotest.run "analysis"
    [
      ( "dataflow",
        [
          Alcotest.test_case "uninit sets" `Quick test_dataflow_uninit_sets;
          Alcotest.test_case "loop-carried liveness" `Quick
            test_dataflow_back_edge_liveness;
        ] );
      ( "hir_lint",
        [
          Alcotest.test_case "W001 uninit var" `Quick test_uninit_var_read;
          Alcotest.test_case "W002 uninit array" `Quick test_uninit_array_read;
          Alcotest.test_case "init clean" `Quick test_uninit_clean_after_write;
          Alcotest.test_case "W003 dead assignment" `Quick test_dead_assignment;
          Alcotest.test_case "port writes live" `Quick test_port_write_never_dead;
          Alcotest.test_case "W004 unreachable stmt" `Quick
            test_unreachable_statement;
          Alcotest.test_case "W005 constant overflow" `Quick
            test_width_constant_overflow;
          Alcotest.test_case "W005 call argument" `Quick test_width_call_argument;
          Alcotest.test_case "constant fits" `Quick test_width_constant_fits;
          Alcotest.test_case "E006 shift width" `Quick test_shift_exceeds_width;
          Alcotest.test_case "W007 sign mix" `Quick
            test_signed_unsigned_comparison;
          Alcotest.test_case "E008 wait-free path" `Quick
            test_wait_free_loop_path;
          Alcotest.test_case "E009 call cycle" `Quick test_call_cycle;
          Alcotest.test_case "acyclic calls clean" `Quick test_call_chain_clean;
          Alcotest.test_case "E010 input write" `Quick test_write_to_input_port;
          Alcotest.test_case "E011 undriven read" `Quick
            test_undriven_output_read;
          Alcotest.test_case "W015 undriven output" `Quick
            test_undriven_output_unread;
        ] );
      ( "fsm_lint",
        [
          Alcotest.test_case "W012 unreachable state" `Quick
            test_fsm_unreachable_state;
          Alcotest.test_case "W013 unread register" `Quick
            test_fsm_unread_register;
        ] );
      ( "vhdl_lint",
        [
          Alcotest.test_case "E010 input driven" `Quick test_vhdl_input_driven;
          Alcotest.test_case "E011/W015 undriven output" `Quick
            test_vhdl_undriven_output;
          Alcotest.test_case "W017 unused signal" `Quick test_vhdl_unused_signal;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "E014 guarded cycle" `Quick
            test_guard_deadlock_cycle;
          Alcotest.test_case "E014 isolated guard" `Quick
            test_guard_deadlock_isolated;
          Alcotest.test_case "plain call breaks deadlock" `Quick
            test_guard_deadlock_clean;
          Alcotest.test_case "wait-graph export" `Quick test_wait_graph_export;
        ] );
      ( "validate",
        [
          Alcotest.test_case "cross-category duplicate" `Quick
            test_validate_cross_category_duplicate;
          Alcotest.test_case "local shadowing" `Quick
            test_validate_local_shadowing;
          Alcotest.test_case "reversed for" `Quick test_validate_reversed_for;
        ] );
      ( "gate",
        [
          Alcotest.test_case "lint error blocks synthesis" `Quick
            test_synthesis_rejects_lint_error;
          Alcotest.test_case "warnings pass through" `Quick
            test_synthesis_passes_warnings_through;
        ] );
      ( "clean",
        [
          Alcotest.test_case "cores error-free" `Quick test_cores_lint_error_free;
          Alcotest.test_case "references error-free" `Quick
            test_references_lint_error_free;
          Alcotest.test_case "generated VHDL error-free" `Quick
            test_generated_vhdl_lint_error_free;
          Alcotest.test_case "VTA mappings deadlock-free" `Quick
            test_vta_mappings_deadlock_free;
        ] );
    ]
