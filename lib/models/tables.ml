let modes = [ Jpeg2000.Codestream.Lossless; Jpeg2000.Codestream.Lossy ]

let figure1_rows ?payload () =
  let measured_shares mode =
    (* Measure stage times from the version-1 model structure: the
       profile drives the EETs, so this checks the model reproduces
       the published distribution. *)
    let r = Experiment.run ?payload Experiment.V1 mode in
    let times = Profile.sw mode in
    let decode_total =
      Sim.Sim_time.to_float_ms
        (List.fold_left
           (fun acc i ->
             Sim.Sim_time.add acc (Profile.sw_decode_time mode ~tile:i))
           Sim.Sim_time.zero
           (List.init Profile.tiles (fun i -> i)))
    in
    let n = float_of_int Profile.tiles in
    let per_stage stage =
      match stage with
      | Profile.Arith_decode -> decode_total
      | Profile.Iq -> Sim.Sim_time.to_float_ms times.Profile.t_iq *. n
      | Profile.Idwt -> r.Outcome.idwt_ms
      | Profile.Ict -> Sim.Sim_time.to_float_ms times.Profile.t_ict *. n
      | Profile.Dc_shift -> Sim.Sim_time.to_float_ms times.Profile.t_dc_shift *. n
    in
    let total = r.Outcome.decode_ms in
    List.map
      (fun (stage, paper_pct) ->
        (stage, paper_pct, 100.0 *. per_stage stage /. total))
      (Profile.shares mode)
  in
  List.map (fun mode -> (mode, measured_shares mode)) modes

let figure1 ?payload () =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "Figure 1 - profiled share of SW-only decoding time per stage\n\n";
  List.iter
    (fun (mode, shares) ->
      Buffer.add_string buf
        (Format.asprintf "%a:\n" Jpeg2000.Codestream.pp_mode mode);
      let rows =
        List.map
          (fun (stage, paper, measured) ->
            [
              Profile.stage_name stage;
              Osss.Report.fmt_pct paper;
              Osss.Report.fmt_pct measured;
            ])
          shares
      in
      Buffer.add_string buf
        (Osss.Report.render ~header:[ "stage"; "paper"; "measured" ] rows);
      Buffer.add_char buf '\n')
    (figure1_rows ?payload ());
  Buffer.contents buf

let table1_results ?payload () =
  ( Experiment.run_all ?payload Jpeg2000.Codestream.Lossless,
    Experiment.run_all ?payload Jpeg2000.Codestream.Lossy )

let version_label version =
  match version with
  | "1" -> "1  SW only"
  | "2" -> "2  HW/SW not parallel"
  | "3" -> "3  HW/SW parallel (3 IDWT modules)"
  | "4" -> "4  SW parallel (cp. 2)"
  | "5" -> "5  SW & HW/SW parallel (cp. 3)"
  | "6a" -> "6a HW/SW SO on bus only"
  | "6b" -> "6b HW/SW SO on bus & P2P"
  | "7a" -> "7a HW/SW SO on bus only"
  | "7b" -> "7b HW/SW SO on bus & P2P"
  | other -> other

let table1 ?payload () =
  let lossless, lossy = table1_results ?payload () in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "Table 1 - simulation results (decode 16 tiles with 3 components, 100 MHz)\n\n";
  let rows =
    List.map2
      (fun (ll : Outcome.t) (ly : Outcome.t) ->
        [
          version_label ll.Outcome.version;
          Osss.Report.fmt_ms ll.Outcome.decode_ms;
          Osss.Report.fmt_ms ly.Outcome.decode_ms;
          Osss.Report.fmt_ms ll.Outcome.idwt_ms;
          Osss.Report.fmt_ms ly.Outcome.idwt_ms;
        ])
      lossless lossy
  in
  let app_rows, vta_rows =
    let is_app row = String.length (List.nth row 0) > 0 && (List.nth row 0).[0] <> '6' && (List.nth row 0).[0] <> '7' in
    List.partition is_app rows
  in
  let header =
    [
      "version of JPEG 2000 decoder model";
      "decode lossless [ms]";
      "decode lossy [ms]";
      "IDWT lossless [ms]";
      "IDWT lossy [ms]";
    ]
  in
  Buffer.add_string buf "Application Layer:\n";
  Buffer.add_string buf (Osss.Report.render ~header app_rows);
  Buffer.add_string buf "\nVirtual Target Architecture Layer:\n";
  Buffer.add_string buf (Osss.Report.render ~header vta_rows);
  let get results version =
    List.find (fun r -> String.equal r.Outcome.version version) results
  in
  Buffer.add_string buf "\nDerived factors (paper's in-text claims):\n";
  List.iter
    (fun (label, f) -> Buffer.add_string buf (Printf.sprintf "  %-58s %s\n" label f))
    [
      ( "speed-up v1 -> v2 (lossless/lossy)",
        Printf.sprintf "%s / %s"
          (Osss.Report.fmt_factor (Outcome.speedup_vs (get lossless "1") (get lossless "2")))
          (Osss.Report.fmt_factor (Outcome.speedup_vs (get lossy "1") (get lossy "2"))) );
      ( "speed-up v1 -> v4 (lossless/lossy)",
        Printf.sprintf "%s / %s"
          (Osss.Report.fmt_factor (Outcome.speedup_vs (get lossless "1") (get lossless "4")))
          (Osss.Report.fmt_factor (Outcome.speedup_vs (get lossy "1") (get lossy "4"))) );
      ( "IDWT inflation 3 -> 6a (lossless/lossy)",
        Printf.sprintf "%s / %s"
          (Osss.Report.fmt_factor
             ((get lossless "6a").Outcome.idwt_ms /. (get lossless "3").Outcome.idwt_ms))
          (Osss.Report.fmt_factor
             ((get lossy "6a").Outcome.idwt_ms /. (get lossy "3").Outcome.idwt_ms)) );
      ( "HW IDWT speed-up 1 -> 6b (lossless/lossy)",
        Printf.sprintf "%s / %s"
          (Osss.Report.fmt_factor
             (Outcome.idwt_speedup_vs (get lossless "1") (get lossless "6b")))
          (Osss.Report.fmt_factor
             (Outcome.idwt_speedup_vs (get lossy "1") (get lossy "6b"))) );
      ( "IDWT deadline misses, all versions (lossless/lossy)",
        let misses rs =
          List.fold_left
            (fun acc (r : Outcome.t) ->
              acc + r.Outcome.resilience.Outcome.deadline_misses)
            0 rs
        in
        Printf.sprintf "%d / %d" (misses lossless) (misses lossy) );
    ];
  Buffer.contents buf

type table2_row = {
  core : string;
  fossy_area : Rtl.Area.report;
  fossy_unopt_area : Rtl.Area.report;
  fossy_mhz : float;
  fossy_vhdl_loc : int;
  systemc_loc : int;
  ref_area : Rtl.Area.report;
  ref_mhz : float;
  ref_vhdl_loc : int;
}

let table2_rows () =
  let synth core_name hir reference =
    match Fossy.Synthesis.synthesise hir with
    | Error es ->
      failwith (core_name ^ ": " ^ String.concat "; " es)
    | Ok r ->
      let ref_r = Fossy.Synthesis.analyse_reference reference in
      {
        core = core_name;
        fossy_area = r.Fossy.Synthesis.area;
        fossy_unopt_area = r.Fossy.Synthesis.unopt_area;
        fossy_mhz = r.Fossy.Synthesis.fmax_mhz;
        fossy_vhdl_loc = r.Fossy.Synthesis.vhdl_loc;
        systemc_loc = r.Fossy.Synthesis.systemc_loc;
        ref_area = ref_r.Fossy.Synthesis.ref_area;
        ref_mhz = ref_r.Fossy.Synthesis.ref_fmax_mhz;
        ref_vhdl_loc = ref_r.Fossy.Synthesis.ref_vhdl_loc;
      }
  in
  [
    synth "IDWT53 (lossless)" Idwt_cores.idwt53_systemc Idwt_cores.idwt53_reference;
    synth "IDWT97 (lossy)" Idwt_cores.idwt97_systemc Idwt_cores.idwt97_reference;
  ]

let table2 () =
  let rows = table2_rows () in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "Table 2 - RTL synthesis results of the IDWT (Virtex-4 area/timing model)\n\n";
  let metric_rows (r : table2_row) =
    [
      [ "  slice flip-flops"; string_of_int r.fossy_area.Rtl.Area.flip_flops;
        string_of_int r.ref_area.Rtl.Area.flip_flops ];
      [ "  4-input LUTs"; string_of_int r.fossy_area.Rtl.Area.luts;
        string_of_int r.ref_area.Rtl.Area.luts ];
      [ "  FF before value analysis";
        string_of_int r.fossy_unopt_area.Rtl.Area.flip_flops; "-" ];
      [ "  LUTs before value analysis";
        string_of_int r.fossy_unopt_area.Rtl.Area.luts; "-" ];
      [ "  occupied slices"; string_of_int r.fossy_area.Rtl.Area.slices;
        string_of_int r.ref_area.Rtl.Area.slices ];
      [ "  total equivalent gates"; string_of_int r.fossy_area.Rtl.Area.gates;
        string_of_int r.ref_area.Rtl.Area.gates ];
      [ "  estimated frequency [MHz]"; Printf.sprintf "%.1f" r.fossy_mhz;
        Printf.sprintf "%.1f" r.ref_mhz ];
      [ "  VHDL lines of code"; string_of_int r.fossy_vhdl_loc;
        string_of_int r.ref_vhdl_loc ];
      [ "  SystemC model lines of code"; string_of_int r.systemc_loc; "-" ];
    ]
  in
  List.iter
    (fun r ->
      Buffer.add_string buf (r.core ^ ":\n");
      Buffer.add_string buf
        (Osss.Report.render ~header:[ "metric"; "FOSSY"; "reference" ] (metric_rows r));
      let slice_ratio =
        float_of_int r.fossy_area.Rtl.Area.slices
        /. float_of_int r.ref_area.Rtl.Area.slices
      in
      Buffer.add_string buf
        (Printf.sprintf "  -> FOSSY/reference: area %+.1f %%, frequency %+.1f %%\n\n"
           ((slice_ratio -. 1.0) *. 100.0)
           ((r.fossy_mhz /. r.ref_mhz -. 1.0) *. 100.0)))
    rows;
  Buffer.contents buf

let relations_report ?payload () =
  let lossless, lossy = table1_results ?payload () in
  let checks = Experiment.paper_relations lossless lossy in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "Paper claims vs simulated results:\n";
  List.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf "  [%s] %s\n        %s\n"
           (if c.Experiment.holds then "ok" else "FAIL")
           c.Experiment.relation c.Experiment.detail))
    checks;
  Buffer.contents buf
