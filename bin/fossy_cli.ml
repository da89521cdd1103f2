(* FOSSY synthesis driver: SystemC-subset IDWT cores -> VHDL +
   synthesis report + EDK platform files. *)

open Cmdliner

(* Every input error names the bad value on stderr and exits 2. *)
let input_error fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("fossy_cli: " ^ msg);
      exit 2)
    fmt

let core_of_name = function
  | "idwt53" -> Models.Idwt_cores.idwt53_systemc
  | "idwt97" -> Models.Idwt_cores.idwt97_systemc
  | other -> input_error "unknown core %S (idwt53 | idwt97)" other

let require_tasks n = if n < 1 then input_error "--tasks must be >= 1 (got %d)" n

let reference_of_name = function
  | "idwt53" -> Models.Idwt_cores.idwt53_reference
  | "idwt97" -> Models.Idwt_cores.idwt97_reference
  | _ -> assert false

let write_file path data =
  let oc = open_out path in
  output_string oc data;
  close_out oc;
  Printf.printf "wrote %s (%d lines)\n" path
    (List.length
       (List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' data)))

let synth_cmd =
  let run core_name out_dir show_systemc with_reference =
    let hir = core_of_name core_name in
    match Fossy.Synthesis.synthesise hir with
    | Error es ->
      List.iter prerr_endline es;
      exit 1
    | Ok r ->
      List.iter prerr_endline r.Fossy.Synthesis.warnings;
      if show_systemc then print_string (Fossy.Hir_pp.emit hir);
      (match out_dir with
      | Some dir ->
        write_file (Filename.concat dir (core_name ^ ".vhd")) r.Fossy.Synthesis.vhdl_text;
        write_file
          (Filename.concat dir (core_name ^ "_behavioural.cpp"))
          (Fossy.Hir_pp.emit hir);
        if with_reference then
          write_file
            (Filename.concat dir (core_name ^ "_ref.vhd"))
            (Rtl.Vhdl_pp.emit (reference_of_name core_name))
      | None -> ());
      Printf.printf
        "%s: %d FSM states, SystemC %d LoC -> VHDL %d LoC\n\
         area: FF=%d LUT=%d slices=%d gates=%d\n\
         estimated frequency: %.1f MHz%s\n"
        r.Fossy.Synthesis.module_name
        (Fossy.Fsm.state_count r.Fossy.Synthesis.fsm)
        r.Fossy.Synthesis.systemc_loc r.Fossy.Synthesis.vhdl_loc
        r.Fossy.Synthesis.area.Rtl.Area.flip_flops
        r.Fossy.Synthesis.area.Rtl.Area.luts r.Fossy.Synthesis.area.Rtl.Area.slices
        r.Fossy.Synthesis.area.Rtl.Area.gates r.Fossy.Synthesis.fmax_mhz
        (if Rtl.Area.fits_lx25 r.Fossy.Synthesis.area then " (fits Virtex-4 LX25)"
         else "")
  in
  Cmd.v
    (Cmd.info "synth" ~doc:"Synthesise an IDWT core to VHDL.")
    Term.(
      const run
      $ Arg.(
          required & pos 0 (some string) None & info [] ~docv:"CORE" ~doc:"idwt53 or idwt97.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "o"; "out" ] ~docv:"DIR" ~doc:"Write VHDL and behavioural model here.")
      $ Arg.(value & flag & info [ "systemc" ] ~doc:"Print the behavioural model.")
      $ Arg.(
          value & flag
          & info [ "reference" ] ~doc:"Also write the hand-crafted reference VHDL."))

let testbench_cmd =
  let run core_name out_dir =
    let hir = core_of_name core_name in
    (* A short line of coefficients exercises the load/compute/drain
       phases; the reference stream is the behavioural model's. *)
    let stimulus =
      [
        ("start", [ 1 ]);
        ("data_in", List.init 64 (fun i -> ((i * 37) mod 211) - 105));
      ]
    in
    match
      Fossy.Testbench.generate_for_module hir ~stimulus ~max_outputs:65 ()
    with
    | Error es ->
      List.iter prerr_endline es;
      exit 1
    | Ok tb -> (
      match out_dir with
      | Some dir -> write_file (Filename.concat dir (core_name ^ "_tb.vhd")) tb
      | None -> print_string tb)
  in
  Cmd.v
    (Cmd.info "testbench"
       ~doc:"Generate a self-checking VHDL testbench for an IDWT core.")
    Term.(
      const run
      $ Arg.(
          required & pos 0 (some string) None & info [] ~docv:"CORE" ~doc:"idwt53 or idwt97.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "o"; "out" ] ~docv:"DIR" ~doc:"Write the testbench here."))

let json_of_diag (d : Fossy.Diagnostic.t) =
  Telemetry.Json.Obj
    [
      ("code", Telemetry.Json.Str d.Fossy.Diagnostic.code);
      ( "severity",
        Telemetry.Json.Str
          (Fossy.Diagnostic.severity_label d.Fossy.Diagnostic.severity) );
      ("path", Telemetry.Json.Str d.Fossy.Diagnostic.path);
      ("message", Telemetry.Json.Str d.Fossy.Diagnostic.message);
    ]

let lint_cmd =
  let run json =
    let cores =
      [
        ("idwt53", Models.Idwt_cores.idwt53_systemc);
        ("idwt97", Models.Idwt_cores.idwt97_systemc);
      ]
    in
    let diagnostics = ref [] in
    let collect ds = diagnostics := !diagnostics @ ds in
    (* Behavioural models and their extracted FSMs. *)
    List.iter (fun (_, hir) -> collect (Analysis.Lint.lint_module hir)) cores;
    (* Generated VHDL plus the hand-crafted Table 2 references. *)
    List.iter
      (fun (_, hir) ->
        match Fossy.Synthesis.synthesise hir with
        | Ok r -> collect (Analysis.Lint.lint_design r.Fossy.Synthesis.vhdl)
        | Error _ -> ())
      cores;
    List.iter
      (fun d -> collect (Analysis.Lint.lint_design d))
      [ Models.Idwt_cores.idwt53_reference; Models.Idwt_cores.idwt97_reference ];
    (* Shared-Object wait-for graphs of every platform mapping. *)
    List.iter
      (fun (sw_tasks, idwt_p2p) ->
        collect
          (Analysis.Lint.lint_vta (Models.Vta_models.mapping ~sw_tasks ~idwt_p2p)))
      [ (1, false); (1, true); (4, false); (4, true) ];
    let ds = List.sort_uniq Fossy.Diagnostic.compare !diagnostics in
    let errors = Fossy.Diagnostic.errors ds in
    if json then
      print_endline
        (Telemetry.Json.to_string
           (Telemetry.Json.Obj
              [
                ("findings", Telemetry.Json.List (List.map json_of_diag ds));
                ("count", Telemetry.Json.Int (List.length ds));
                ("errors", Telemetry.Json.Int (List.length errors));
              ]))
    else begin
      List.iter (fun d -> print_endline (Fossy.Diagnostic.render d)) ds;
      Printf.printf "lint: %d finding(s), %d error(s)\n" (List.length ds)
        (List.length errors)
    end;
    if errors <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run the analysis-layer diagnostic suite over the IDWT cores (HIR, \
          FSM and generated VHDL), the reference designs and the VTA \
          mappings. Exits non-zero on error-severity findings.")
    Term.(
      const run
      $ Arg.(
          value & flag
          & info [ "json" ]
              ~doc:
                "Emit the findings as a JSON document (code, severity, \
                 path, message) instead of rendered lines."))

let area_cmd =
  let run json check =
    let json_of_report (a : Rtl.Area.report) =
      Telemetry.Json.Obj
        [
          ("flip_flops", Telemetry.Json.Int a.Rtl.Area.flip_flops);
          ("luts", Telemetry.Json.Int a.Rtl.Area.luts);
          ("slices", Telemetry.Json.Int a.Rtl.Area.slices);
          ("gates", Telemetry.Json.Int a.Rtl.Area.gates);
        ]
    in
    let failures = ref [] in
    let rows =
      List.map
        (fun (name, hir) ->
          match Fossy.Synthesis.synthesise hir with
          | Error es ->
            List.iter prerr_endline es;
            exit 1
          | Ok r ->
            let reference =
              Fossy.Synthesis.analyse_reference (reference_of_name name)
            in
            if check then
              List.iter
                (fun (metric, pct) ->
                  failures :=
                    Printf.sprintf "%s: optimised %s regressed %.2f%%" name
                      metric pct
                    :: !failures)
                (Rtl.Area.regressions ~tolerance_pct:2.0
                   ~baseline:r.Fossy.Synthesis.unopt_area
                   r.Fossy.Synthesis.area);
            ( name,
              Telemetry.Json.Obj
                [
                  ("core", Telemetry.Json.Str name);
                  ("optimised", json_of_report r.Fossy.Synthesis.area);
                  ("unoptimised", json_of_report r.Fossy.Synthesis.unopt_area);
                  ("reference", json_of_report reference.Fossy.Synthesis.ref_area);
                  ( "fsm_states",
                    Telemetry.Json.Int
                      (Fossy.Fsm.state_count r.Fossy.Synthesis.fsm) );
                ],
              r ))
        [
          ("idwt53", Models.Idwt_cores.idwt53_systemc);
          ("idwt97", Models.Idwt_cores.idwt97_systemc);
        ]
    in
    if json then
      print_endline
        (Telemetry.Json.to_string
           (Telemetry.Json.Obj
              [
                ( "cores",
                  Telemetry.Json.List (List.map (fun (_, j, _) -> j) rows) );
              ]))
    else
      List.iter
        (fun (name, _, r) ->
          Printf.printf "%s: opt FF=%d LUT=%d | unopt FF=%d LUT=%d (%+.2f%% FF, %+.2f%% LUT)\n"
            name r.Fossy.Synthesis.area.Rtl.Area.flip_flops
            r.Fossy.Synthesis.area.Rtl.Area.luts
            r.Fossy.Synthesis.unopt_area.Rtl.Area.flip_flops
            r.Fossy.Synthesis.unopt_area.Rtl.Area.luts
            (Rtl.Area.delta_pct
               ~baseline:r.Fossy.Synthesis.unopt_area.Rtl.Area.flip_flops
               r.Fossy.Synthesis.area.Rtl.Area.flip_flops)
            (Rtl.Area.delta_pct
               ~baseline:r.Fossy.Synthesis.unopt_area.Rtl.Area.luts
               r.Fossy.Synthesis.area.Rtl.Area.luts))
        rows;
    match !failures with
    | [] -> ()
    | fs ->
      List.iter prerr_endline (List.rev fs);
      exit 1
  in
  Cmd.v
    (Cmd.info "area"
       ~doc:
         "Report optimised, unoptimised and reference LUT/FF figures for \
          the built-in cores. With --check, exit non-zero if the \
          value-analysis optimiser regresses LUT or FF beyond 2% of the \
          unoptimised baseline. CI diffs the --json output against the \
          committed AREA_baseline.json.")
    Term.(
      const run
      $ Arg.(value & flag & info [ "json" ] ~doc:"Emit a JSON document.")
      $ Arg.(
          value & flag
          & info [ "check" ]
              ~doc:"Gate: fail on optimised-vs-unoptimised regression."))

let table2_cmd =
  let run () = print_string (Models.Tables.table2 ()) in
  Cmd.v
    (Cmd.info "table2" ~doc:"Regenerate the Table 2 synthesis comparison.")
    Term.(const run $ const ())

let platgen_cmd =
  let run sw_tasks idwt_p2p out_dir =
    require_tasks sw_tasks;
    let vta = Models.Vta_models.mapping ~sw_tasks ~idwt_p2p in
    let mhs = Fossy.Platgen.mhs vta ~hw_cores:[ "idwt2d"; "idwt53"; "idwt97" ] in
    let mss = Fossy.Platgen.mss vta in
    match out_dir with
    | Some dir ->
      write_file (Filename.concat dir "system.mhs") mhs;
      write_file (Filename.concat dir "system.mss") mss
    | None ->
      print_string mhs;
      print_string mss
  in
  Cmd.v
    (Cmd.info "platgen" ~doc:"Generate the EDK platform files (MHS/MSS).")
    Term.(
      const run
      $ Arg.(value & opt int 4 & info [ "tasks" ] ~docv:"N" ~doc:"SW task count.")
      $ Arg.(value & flag & info [ "p2p" ] ~doc:"IDWT blocks on point-to-point channels.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "o"; "out" ] ~docv:"DIR" ~doc:"Write files here instead of stdout."))

let swgen_cmd =
  let run sw_tasks mode out_dir =
    require_tasks sw_tasks;
    let mode =
      match mode with
      | "lossless" -> Jpeg2000.Codestream.Lossless
      | "lossy" -> Jpeg2000.Codestream.Lossy
      | other -> input_error "unknown --mode %S (lossless | lossy)" other
    in
    let words = Models.Profile.nominal_tile_words mode in
    List.iter
      (fun i ->
        let spec =
          {
            Fossy.Sw_codegen.task_name = Printf.sprintf "decoder%d" i;
            processor = Printf.sprintf "microblaze%d" i;
            shared_objects =
              [
                ( "hwsw_so",
                  [
                    { Fossy.Sw_codegen.stub_name = "put_pending";
                      args_words = words + 3; ret_words = 3 };
                    { Fossy.Sw_codegen.stub_name = "take_ready";
                      args_words = 3; ret_words = words + 3 };
                  ] );
              ];
            body_include = Printf.sprintf "decoder%d_main.h" i;
          }
        in
        let code = Fossy.Sw_codegen.emit_c spec in
        match out_dir with
        | Some dir ->
          write_file (Filename.concat dir (Printf.sprintf "decoder%d.c" i)) code
        | None -> print_string code)
      (List.init sw_tasks (fun i -> i))
  in
  Cmd.v
    (Cmd.info "swgen"
       ~doc:
         "Generate the C RMI stubs of the decoder Software Tasks (the SW side \
          of the synthesis flow).")
    Term.(
      const run
      $ Arg.(value & opt int 4 & info [ "tasks" ] ~docv:"N" ~doc:"SW task count.")
      $ Arg.(
          value & opt string "lossless"
          & info [ "m"; "mode" ] ~docv:"MODE" ~doc:"lossless or lossy.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "o"; "out" ] ~docv:"DIR" ~doc:"Write files here instead of stdout."))

let () =
  let doc = "FOSSY high-level synthesis flow" in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "fossy_cli" ~doc)
          [
            synth_cmd; testbench_cmd; lint_cmd; area_cmd; table2_cmd;
            platgen_cmd; swgen_cmd;
          ]))
