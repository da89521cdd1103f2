(* Tests for the RTL substrate and the FOSSY synthesis flow. *)

let qc = QCheck_alcotest.to_alcotest

open Fossy.Hir

(* A small behavioural module used across the tests: accumulate 8
   input samples through a scale function, one per cycle. *)
let scale_subprogram =
  {
    s_name = "scale";
    s_params = [ ("x", int_ty 16); ("k", int_ty 16) ];
    s_ret = Some (int_ty 16);
    s_locals = [ ("t", int_ty 32) ];
    s_body = [ assign "t" (v "x" *: v "k"); Return (Some (v "t" >>: 4)) ];
  }

let accumulator =
  {
    m_name = "acc8";
    m_ports =
      [ ("din", Pin, int_ty 16); ("dout", Pout, int_ty 16); ("go", Pin, uint_ty 1) ];
    m_vars = [ ("total", int_ty 16) ];
    m_arrays = [ ("window", int_ty 16, 8) ];
    m_subprograms = [ scale_subprogram ];
    m_body =
      [
        While (Bin (Eq, v "go", c 0), [ Wait ]);
        assign "total" (c 0);
        For
          ( "i",
            0,
            7,
            [
              assign_arr "window" (v "i") (v "din");
              assign "total" (v "total" +: Call ("scale", [ Arr ("window", v "i"); c 3 ]));
              Wait;
            ] );
        assign "dout" (v "total");
        Wait;
      ];
  }

(* -- Hir validation ------------------------------------------------ *)

let test_validate_accepts_good_module () =
  match validate accumulator with
  | Ok () -> ()
  | Error es -> Alcotest.failf "unexpected: %s" (String.concat "; " es)

let test_validate_rejects_bad_modules () =
  let expect_error label m =
    match validate m with
    | Ok () -> Alcotest.failf "%s: expected validation error" label
    | Error _ -> ()
  in
  expect_error "unknown variable"
    { accumulator with m_body = [ assign "nonexistent" (c 1) ] };
  expect_error "unknown function"
    { accumulator with m_body = [ assign "total" (Call ("missing", [])) ] };
  expect_error "wait-free while"
    { accumulator with m_body = [ While (Bin (Eq, v "go", c 0), [ assign "total" (c 1) ]) ] };
  expect_error "return in process body" { accumulator with m_body = [ Return None ] };
  expect_error "wait inside function"
    {
      accumulator with
      m_subprograms =
        [ { scale_subprogram with s_body = [ Wait; Return (Some (c 0)) ] } ];
      m_body = [ assign "total" (Call ("scale", [ c 1; c 2 ])); Wait ];
    };
  expect_error "arity mismatch"
    { accumulator with m_body = [ assign "total" (Call ("scale", [ c 1 ])); Wait ] }

let test_hir_pp_emits_systemc () =
  let text = Fossy.Hir_pp.emit accumulator in
  List.iter
    (fun fragment ->
      if not (Str_util.contains text fragment) then
        Alcotest.failf "missing %S" fragment)
    [ "SC_MODULE(acc8)"; "SC_CTHREAD"; "sc_int<16>"; "wait();"; "scale(" ]

(* -- Inline --------------------------------------------------------- *)

let rec stmts_have_calls stmts =
  let rec expr_has = function
    | Call _ -> true
    | Bin (_, a, b) -> expr_has a || expr_has b
    | Un (_, e) | Arr (_, e) -> expr_has e
    | Const _ | Var _ -> false
  in
  List.exists
    (function
      | Assign (_, e) -> expr_has e
      | If (cond, a, b) -> expr_has cond || stmts_have_calls a || stmts_have_calls b
      | While (cond, body) -> expr_has cond || stmts_have_calls body
      | For (_, _, _, body) -> stmts_have_calls body
      | Call_p _ -> true
      | Wait | Return _ -> false)
    stmts

let test_inline_removes_calls () =
  let inlined = Fossy.Inline.run accumulator in
  Alcotest.(check bool) "no subprograms left" true (inlined.m_subprograms = []);
  Alcotest.(check bool) "no call nodes left" false (stmts_have_calls inlined.m_body)

let test_inline_substitutes_simple_args () =
  (* Calling with variable/constant args must not create parameter
     temporaries (only the local and the return temp remain). *)
  let m =
    {
      accumulator with
      m_body = [ assign "total" (Call ("scale", [ v "din"; c 3 ])); Wait ];
    }
  in
  let inlined = Fossy.Inline.run m in
  let new_vars =
    List.filter (fun (n, _) -> n <> "total") inlined.m_vars |> List.map fst
  in
  Alcotest.(check int) "only local + return temp" 2 (List.length new_vars)

let test_inline_procedure_with_wait () =
  let p =
    {
      s_name = "pulse";
      s_params = [ ("n", int_ty 8) ];
      s_ret = None;
      s_locals = [];
      s_body = [ assign "total" (v "n"); Wait; assign "total" (c 0) ];
    }
  in
  let m =
    {
      accumulator with
      m_subprograms = [ p ];
      m_body = [ Call_p ("pulse", [ c 5 ]); Wait ];
    }
  in
  let inlined = Fossy.Inline.run m in
  Alcotest.(check bool) "wait survives inlining" true
    (stmts_contain_wait inlined.m_body)

(* -- FSM extraction -------------------------------------------------- *)

let fsm_of m = Fossy.Fsm.of_module (Fossy.Inline.run m)

let test_fsm_states_at_waits () =
  let m =
    {
      accumulator with
      m_subprograms = [];
      m_body = [ assign "total" (c 1); Wait; assign "total" (c 2); Wait ];
    }
  in
  let fsm = fsm_of m in
  (* entry state + one per wait = 3 (last wait loops to entry). *)
  Alcotest.(check int) "three states" 3 (Fossy.Fsm.state_count fsm)

let test_fsm_all_states_reachable () =
  let fsm = fsm_of accumulator in
  let reachable = Fossy.Fsm.reachable_states fsm in
  Alcotest.(check bool) "every state reachable" true (Array.for_all Fun.id reachable)

let test_fsm_unrolls_waitfree_for () =
  let m =
    {
      accumulator with
      m_subprograms = [];
      m_body =
        [ For ("i", 0, 3, [ assign_arr "window" (v "i") (c 0) ]); Wait ];
    }
  in
  let fsm = fsm_of m in
  Alcotest.(check int) "unrolled into entry state" 2 (Fossy.Fsm.state_count fsm);
  Alcotest.(check int) "four unrolled actions" 4
    (List.length fsm.Fossy.Fsm.states.(0).Fossy.Fsm.actions)

let test_fsm_rejects_waitfree_while () =
  let m =
    {
      accumulator with
      m_subprograms = [];
      m_body = [ While (Bin (Eq, v "go", c 0), [ assign "total" (c 1) ]) ];
    }
  in
  Alcotest.check_raises "rejected" (Failure "Fsm: wait-free while loop") (fun () ->
      ignore (fsm_of m))

let fsm_reachability_qcheck =
  QCheck.Test.make ~name:"random straight-line modules synthesise to live FSMs"
    ~count:60
    QCheck.(list_of_size Gen.(1 -- 15) (int_bound 2))
    (fun shape ->
      (* 0 = assignment, 1 = wait, 2 = guarded assignment *)
      let body =
        List.concat_map
          (function
            | 0 -> [ assign "total" (v "total" +: c 1) ]
            | 1 -> [ Wait ]
            | _ ->
              [ If (Bin (Eq, v "go", c 1), [ assign "total" (c 0); Wait ], []) ])
          shape
        @ [ Wait ]
      in
      let m = { accumulator with m_subprograms = []; m_body = body } in
      let fsm = fsm_of m in
      Array.for_all Fun.id (Fossy.Fsm.reachable_states fsm))

(* -- Codegen / VHDL ------------------------------------------------- *)

let synth m =
  match Fossy.Synthesis.synthesise m with
  | Ok r -> r
  | Error es -> Alcotest.failf "synthesis failed: %s" (String.concat "; " es)

let test_codegen_produces_fsm_vhdl () =
  let r = synth accumulator in
  List.iter
    (fun fragment ->
      if not (Str_util.contains r.Fossy.Synthesis.vhdl_text fragment) then
        Alcotest.failf "missing %S" fragment)
    [
      "entity acc8 is";
      "rising_edge(clk)";
      "case state is";
      "when s0 =>";
      "signed(15 downto 0)";
      "end architecture;";
    ]

let test_codegen_identifiers_preserved () =
  (* "all identifiers are preserved during synthesis" *)
  let r = synth accumulator in
  List.iter
    (fun name ->
      if not (Str_util.contains r.Fossy.Synthesis.vhdl_text name) then
        Alcotest.failf "identifier %s lost" name)
    [ "total"; "window"; "din"; "dout" ]

let test_vhdl_loc_counts_nonblank () =
  let r = synth accumulator in
  Alcotest.(check bool) "loc positive" true (r.Fossy.Synthesis.vhdl_loc > 0);
  let lines = String.split_on_char '\n' r.Fossy.Synthesis.vhdl_text in
  let nonblank = List.filter (fun l -> String.trim l <> "") lines in
  Alcotest.(check int) "matches text" (List.length nonblank)
    r.Fossy.Synthesis.vhdl_loc

(* -- Netlist / area / timing ---------------------------------------- *)

let test_netlist_counts_registers () =
  let r = synth accumulator in
  let s = r.Fossy.Synthesis.summary in
  (* window array = 8 x 16 = 128 register bits at least. *)
  Alcotest.(check bool) "array bits" true (s.Rtl.Netlist.array_bits >= 128);
  Alcotest.(check bool) "registers include array" true
    (s.Rtl.Netlist.register_bits >= s.Rtl.Netlist.array_bits)

let test_netlist_detects_multiplier () =
  let r = synth accumulator in
  let has_mul =
    List.exists
      (fun (o : Rtl.Netlist.op_count) -> o.Rtl.Netlist.kind = Rtl.Netlist.Mul)
      r.Fossy.Synthesis.summary.Rtl.Netlist.ops_total
  in
  Alcotest.(check bool) "multiplier found" true has_mul

let test_shared_less_or_equal_total () =
  let r = synth Models.Idwt_cores.idwt97_systemc in
  let s = r.Fossy.Synthesis.summary in
  Alcotest.(check bool) "shared ops below total" true
    (Rtl.Netlist.total_op_luts s.Rtl.Netlist.ops_shared
    <= Rtl.Netlist.total_op_luts s.Rtl.Netlist.ops_total);
  Alcotest.(check bool) "shared reads below total" true
    (Rtl.Netlist.read_port_luts s.Rtl.Netlist.reads_shared
    <= Rtl.Netlist.read_port_luts s.Rtl.Netlist.reads_total)

let test_area_monotonic_in_sharing () =
  (* For a single-FSM design, the shared estimate must not exceed the
     flat one by more than the documented mux overheads; sanity: both
     are positive and flat >= shared for the multiplier-heavy core. *)
  let r = synth Models.Idwt_cores.idwt97_systemc in
  let s = r.Fossy.Synthesis.summary in
  let shared = Rtl.Area.estimate ~sharing:Rtl.Area.Shared s in
  let flat = Rtl.Area.estimate ~sharing:Rtl.Area.Flat s in
  Alcotest.(check bool) "positive" true (shared.Rtl.Area.luts > 0);
  Alcotest.(check bool) "sharing reduces the 9/7 core" true
    (shared.Rtl.Area.luts < flat.Rtl.Area.luts)

let test_timing_sharing_slower () =
  let r = synth Models.Idwt_cores.idwt97_systemc in
  let s = r.Fossy.Synthesis.summary in
  Alcotest.(check bool) "sharing lowers fmax" true
    (Rtl.Timing_model.estimate_mhz ~sharing:Rtl.Area.Shared s
    < Rtl.Timing_model.estimate_mhz ~sharing:Rtl.Area.Flat s)

let test_inline_recursion_limit () =
  let rec_sub =
    {
      s_name = "forever";
      s_params = [ ("x", int_ty 8) ];
      s_ret = Some (int_ty 8);
      s_locals = [];
      s_body = [ Return (Some (Call ("forever", [ v "x" ]))) ];
    }
  in
  let m =
    {
      accumulator with
      m_subprograms = [ rec_sub ];
      m_body = [ assign "total" (Call ("forever", [ c 1 ])); Wait ];
    }
  in
  Alcotest.(check bool) "recursion detected" true
    (try ignore (Fossy.Inline.run m); false with Failure _ -> true)

let test_netlist_constant_shift_free () =
  (* Multiplication by a power of two must not create a multiplier. *)
  let m =
    {
      accumulator with
      m_subprograms = [];
      m_body = [ assign "total" (v "din" *: c 8); Wait ];
    }
  in
  let r = synth m in
  let has_mul =
    List.exists
      (fun (o : Rtl.Netlist.op_count) -> o.Rtl.Netlist.kind = Rtl.Netlist.Mul)
      r.Fossy.Synthesis.summary.Rtl.Netlist.ops_total
  in
  Alcotest.(check bool) "no multiplier for x8" false has_mul

let test_timing_no_sharing_penalty_without_muls () =
  (* The 5/3 core has no multipliers, so sharing must not slow it. *)
  let r = synth Models.Idwt_cores.idwt53_systemc in
  let s = r.Fossy.Synthesis.summary in
  let shared = Rtl.Timing_model.critical_path_ns ~sharing:Rtl.Area.Shared s in
  let flat = Rtl.Timing_model.critical_path_ns ~sharing:Rtl.Area.Flat s in
  Alcotest.(check (float 1e-9)) "identical critical paths" flat shared

let test_area_fits_lx25 () =
  let r = synth Models.Idwt_cores.idwt53_systemc in
  Alcotest.(check bool) "the 5/3 core fits the paper's LX25" true
    (Rtl.Area.fits_lx25 r.Fossy.Synthesis.area)

(* -- Platform generation --------------------------------------------- *)

let test_platgen_mhs_mss () =
  let vta = Models.Vta_models.mapping ~sw_tasks:4 ~idwt_p2p:true in
  let mhs = Fossy.Platgen.mhs vta ~hw_cores:[ "idwt2d"; "idwt53"; "idwt97" ] in
  List.iter
    (fun fragment ->
      if not (Str_util.contains mhs fragment) then Alcotest.failf "MHS missing %S" fragment)
    [
      "BEGIN microblaze";
      "INSTANCE = microblaze3";
      "BEGIN opb_v20";
      "mch_opb_ddr";
      "INSTANCE = idwt53_block";
      "osss_p2p_channel";
    ];
  let mss = Fossy.Platgen.mss vta in
  List.iter
    (fun fragment ->
      if not (Str_util.contains mss fragment) then Alcotest.failf "MSS missing %S" fragment)
    [ "OS_NAME = standalone"; "osss_embedded"; "PROC_INSTANCE = microblaze0" ]

let test_platgen_rejects_invalid_mapping () =
  let vta = Osss.Vta.create Osss.Platform.ml401 in
  Osss.Vta.map_module vta ~module_name:"a" ~block:"b";
  Osss.Vta.map_module vta ~module_name:"c" ~block:"b";
  Alcotest.(check bool) "raises" true
    (try
       ignore (Fossy.Platgen.mhs vta ~hw_cores:[]);
       false
     with Invalid_argument _ -> true)

(* Every BUS_INTERFACE of a generated MHS names an instance of the same
   file, for every mapping platgen can be asked for. *)
let test_platgen_bus_interfaces_resolve () =
  List.iter
    (fun (sw_tasks, idwt_p2p) ->
      let mhs =
        Fossy.Platgen.mhs
          (Models.Vta_models.mapping ~sw_tasks ~idwt_p2p)
          ~hw_cores:[ "idwt2d"; "idwt53"; "idwt97" ]
      in
      let lines =
        List.map
          (fun l -> List.filter (( <> ) "") (String.split_on_char ' ' l))
          (String.split_on_char '\n' mhs)
      in
      let instances =
        List.filter_map
          (function [ "PARAMETER"; "INSTANCE"; "="; n ] -> Some n | _ -> None)
          lines
      in
      let targets =
        List.filter_map
          (function [ "BUS_INTERFACE"; _; "="; t ] -> Some t | _ -> None)
          lines
      in
      if targets = [] then
        Alcotest.failf "tasks=%d p2p=%b: no BUS_INTERFACE" sw_tasks idwt_p2p;
      List.iter
        (fun t ->
          if not (List.mem t instances) then
            Alcotest.failf "tasks=%d p2p=%b: BUS_INTERFACE target %s is no INSTANCE"
              sw_tasks idwt_p2p t)
        targets)
    (List.concat_map (fun n -> [ (n, false); (n, true) ]) [ 1; 2; 3; 4 ])

let test_testbench_generation () =
  let stimulus = [ ("din", [ 3; 5; 7; 9 ]); ("go", [ 1 ]) ] in
  match
    Fossy.Testbench.generate_for_module accumulator ~stimulus ~max_outputs:4 ()
  with
  | Error es -> Alcotest.failf "testbench failed: %s" (String.concat "; " es)
  | Ok tb ->
    List.iter
      (fun fragment ->
        if not (Str_util.contains tb fragment) then
          Alcotest.failf "testbench missing %S" fragment)
      [
        "entity acc8_tb is";
        "dut : entity work.acc8";
        "constant din_stimulus";
        "constant dout_reference";
        "assert to_integer(dout) = dout_reference(idx)";
        "clk <= not clk after 5 ns;";
      ];
    (* The embedded reference stream is the interpreter's result. *)
    let fsm = Fossy.Fsm.of_module (Fossy.Inline.run accumulator) in
    let trace = Fossy.Interp.run_fsm ~max_outputs:4 fsm stimulus in
    (match Fossy.Interp.output_port trace "dout" with
    | [] -> Alcotest.fail "no reference outputs"
    | first :: _ ->
      Alcotest.(check bool) "first reference value embedded" true
        (Str_util.contains tb (string_of_int first)))

let test_sw_codegen () =
  let spec =
    {
      Fossy.Sw_codegen.task_name = "decoder0";
      processor = "microblaze0";
      shared_objects =
        [
          ( "hwsw_so",
            [
              { Fossy.Sw_codegen.stub_name = "put_pending"; args_words = 3; ret_words = 3 };
              { Fossy.Sw_codegen.stub_name = "take_ready"; args_words = 1; ret_words = 3 };
            ] );
        ];
      body_include = "decoder0_main.h";
    }
  in
  let code = Fossy.Sw_codegen.emit_c spec in
  List.iter
    (fun fragment ->
      if not (Str_util.contains code fragment) then Alcotest.failf "C missing %S" fragment)
    [
      "#include \"osss_embedded.h\"";
      "hwsw_so_put_pending";
      "osss_rmi_send";
      "void decoder0_entry(void)";
    ];
  Alcotest.(check bool) "has loc" true (Fossy.Sw_codegen.loc spec > 10)

let () =
  Alcotest.run "fossy"
    [
      ( "hir",
        [
          Alcotest.test_case "validates good module" `Quick
            test_validate_accepts_good_module;
          Alcotest.test_case "rejects bad modules" `Quick
            test_validate_rejects_bad_modules;
          Alcotest.test_case "systemc printing" `Quick test_hir_pp_emits_systemc;
        ] );
      ( "inline",
        [
          Alcotest.test_case "removes all calls" `Quick test_inline_removes_calls;
          Alcotest.test_case "substitutes simple args" `Quick
            test_inline_substitutes_simple_args;
          Alcotest.test_case "procedure with wait" `Quick
            test_inline_procedure_with_wait;
        ] );
      ( "fsm",
        [
          Alcotest.test_case "states at waits" `Quick test_fsm_states_at_waits;
          Alcotest.test_case "all states reachable" `Quick
            test_fsm_all_states_reachable;
          Alcotest.test_case "unrolls wait-free for" `Quick
            test_fsm_unrolls_waitfree_for;
          Alcotest.test_case "rejects wait-free while" `Quick
            test_fsm_rejects_waitfree_while;
          qc fsm_reachability_qcheck;
        ] );
      ( "codegen",
        [
          Alcotest.test_case "emits FSM VHDL" `Quick test_codegen_produces_fsm_vhdl;
          Alcotest.test_case "identifiers preserved" `Quick
            test_codegen_identifiers_preserved;
          Alcotest.test_case "loc metric" `Quick test_vhdl_loc_counts_nonblank;
        ] );
      ( "netlist_area_timing",
        [
          Alcotest.test_case "registers counted" `Quick test_netlist_counts_registers;
          Alcotest.test_case "multiplier detected" `Quick
            test_netlist_detects_multiplier;
          Alcotest.test_case "shared <= total" `Quick test_shared_less_or_equal_total;
          Alcotest.test_case "sharing reduces 9/7 area" `Quick
            test_area_monotonic_in_sharing;
          Alcotest.test_case "sharing lowers fmax" `Quick test_timing_sharing_slower;
        ] );
      ( "edge_cases",
        [
          Alcotest.test_case "inline recursion limit" `Quick
            test_inline_recursion_limit;
          Alcotest.test_case "constant shift free" `Quick
            test_netlist_constant_shift_free;
          Alcotest.test_case "no sharing penalty without muls" `Quick
            test_timing_no_sharing_penalty_without_muls;
          Alcotest.test_case "idwt53 fits LX25" `Quick test_area_fits_lx25;
        ] );
      ( "platgen_sw",
        [
          Alcotest.test_case "mhs/mss generation" `Quick test_platgen_mhs_mss;
          Alcotest.test_case "invalid mapping rejected" `Quick
            test_platgen_rejects_invalid_mapping;
          Alcotest.test_case "MHS bus interfaces resolve" `Quick
            test_platgen_bus_interfaces_resolve;
          Alcotest.test_case "sw stubs" `Quick test_sw_codegen;
          Alcotest.test_case "testbench generation" `Quick
            test_testbench_generation;
        ] );
    ]
