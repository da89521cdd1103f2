(* Every deterministic number EXPERIMENTS.md reports, recomputed from
   the code that produces it: Figure 1's model table, Table 1 and its
   claims, Table 2 and its claims, the lines-of-code table and the OPB
   burst sweep. The document is a dune dependency of this test, so an
   edit to either side re-runs it. Host-time tables measure one machine
   and are not checked here. *)

module C = Jpeg2000.Codestream
module O = Models.Outcome

let doc_lines =
  String.split_on_char '\n'
    (In_channel.with_open_bin "../EXPERIMENTS.md" In_channel.input_all)

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* The lines of the section whose "## " heading starts with [title]. *)
let section title =
  let rec find = function
    | [] -> Alcotest.failf "EXPERIMENTS.md has no section %S" title
    | l :: rest -> if starts_with ("## " ^ title) l then take [] rest else find rest
  and take acc = function
    | l :: rest when not (starts_with "## " l) -> take (l :: acc) rest
    | _ -> List.rev acc
  in
  find doc_lines

(* The section's markdown tables in order, each a list of rows of
   trimmed cells, header first, separator row dropped. *)
let tables lines =
  let cells l =
    let l = String.trim l in
    List.map String.trim
      (String.split_on_char '|' (String.sub l 1 (String.length l - 2)))
  in
  let close acc cur = if cur = [] then acc else List.rev cur :: acc in
  let rec go acc cur = function
    | [] -> List.rev (close acc cur)
    | l :: rest ->
      let t = String.trim l in
      if starts_with "|---" t then go acc cur rest
      else if starts_with "|" t then go acc (cells l :: cur) rest
      else go (close acc cur) [] rest
  in
  go [] [] lines

let table title n =
  match List.nth_opt (tables (section title)) n with
  | Some t -> t
  | None -> Alcotest.failf "section %S has no table %d" title n

(* Rows keyed by their first cell; every expected key must be present
   and no other row may be. *)
let check_keyed what rows expected =
  let body = List.tl rows in
  Alcotest.(check (list string))
    (what ^ ": rows")
    (List.map fst expected)
    (List.map List.hd body);
  List.iter2
    (fun row (key, cells) ->
      Alcotest.(check (list string)) (what ^ ": " ^ key) cells (List.tl row))
    body expected

let f1 = Printf.sprintf "%.1f"
let pct x = Printf.sprintf "%.1f %%" x

(* A sign-prefixed figure as the document writes it: "+7.6", "−16.8". *)
let signed x =
  let s = Printf.sprintf "%+.1f" x in
  if s.[0] = '-' then "−" ^ String.sub s 1 (String.length s - 1) else s

let pair f a b = f a ^ " / " ^ f b

(* -- Figure 1 ---------------------------------------------------------- *)

let stage_label = function
  | Models.Profile.Arith_decode -> "arithmetic decode"
  | Models.Profile.Iq -> "IQ"
  | Models.Profile.Idwt -> "IDWT"
  | Models.Profile.Ict -> "ICT"
  | Models.Profile.Dc_shift -> "DC shift"

let test_figure1 () =
  let rows = Models.Tables.figure1_rows ~payload:false () in
  let shares mode = List.assoc mode rows in
  check_keyed "Figure 1" (table "Figure 1" 0)
    (List.map2
       (fun (stage, pl, ml) (_, py, my) ->
         (stage_label stage, [ pct pl; pct ml; pct py; pct my ]))
       (shares C.Lossless) (shares C.Lossy))

(* -- Table 1 ----------------------------------------------------------- *)

let table1 = lazy (Models.Tables.table1_results ~payload:false ())

let test_table1 () =
  let lossless, lossy = Lazy.force table1 in
  let rows = List.tl (table "Table 1" 0) in
  Alcotest.(check int) "Table 1: rows" (List.length lossless) (List.length rows);
  List.iter2
    (fun row ((ll : O.t), (ly : O.t)) ->
      let version =
        match String.split_on_char ' ' (List.hd row) with v :: _ -> v | [] -> ""
      in
      Alcotest.(check string) "Table 1: version" ll.version version;
      Alcotest.(check (list string))
        ("Table 1: " ^ version)
        [ f1 ll.decode_ms; f1 ly.decode_ms; f1 ll.idwt_ms; f1 ly.idwt_ms ]
        (List.tl row))
    rows
    (List.combine lossless lossy)

let test_table1_claims () =
  let lossless, lossy = Lazy.force table1 in
  List.iter
    (fun c ->
      if not c.Models.Experiment.holds then
        Alcotest.failf "paper relation fails: %s (%s)" c.Models.Experiment.relation
          c.Models.Experiment.detail)
    (Models.Experiment.paper_relations lossless lossy);
  let get rs v = List.find (fun (r : O.t) -> r.version = v) rs in
  (* [f] of the lossless and the lossy results, "lossless / lossy". *)
  let both fmt f = pair fmt (f (get lossless)) (f (get lossy)) in
  let factor2 = Printf.sprintf "%.2f×" and factor1 = Printf.sprintf "%.1f×" in
  let ms x = signed x ^ " ms" and rel x = signed ((x -. 1.0) *. 100.0) ^ " %" in
  let p2p_equal =
    List.for_all
      (fun rs ->
        let a = (get rs "6b").idwt_ms and b = (get rs "7b").idwt_ms in
        Float.abs (a -. b) < 0.005 *. a)
      [ lossless; lossy ]
  in
  let measured =
    [
      ( "v2 speed-up over v1",
        both
          (fun x -> pct ((x -. 1.0) *. 100.0))
          (fun g -> O.speedup_vs (g "1") (g "2")) );
      ("v3 vs v2", both ms (fun g -> (g "3").decode_ms -. (g "2").decode_ms));
      ("v4 speed-up over v1", both factor2 (fun g -> O.speedup_vs (g "1") (g "4")));
      ("v5 vs v4", both ms (fun g -> (g "5").decode_ms -. (g "4").decode_ms));
      ( "IDWT time 3 → 6a",
        both factor1 (fun g -> (g "6a").idwt_ms /. (g "3").idwt_ms) );
      ("IDWT 6b vs 7b", if p2p_equal then "equal to < 0.5 %" else "not equal");
      ("IDWT 7a vs 6a", both rel (fun g -> (g "7a").idwt_ms /. (g "6a").idwt_ms));
      ( "HW IDWT vs SW (1 → 6b/7b)",
        both factor1 (fun g -> O.idwt_speedup_vs (g "1") (g "6b")) );
      ( "decode time after refinement",
        both rel (fun g -> (g "6a").decode_ms /. (g "3").decode_ms) );
    ]
  in
  let rows = table "Table 1" 1 in
  check_keyed "Table 1 claims"
    (List.map (fun row -> [ List.hd row; List.nth row 2 ]) rows)
    (List.map (fun (k, v) -> (k, [ v ])) measured)

(* -- Table 2 and lines of code ----------------------------------------- *)

let table2 = lazy (Models.Tables.table2_rows ())

let cores () =
  match Lazy.force table2 with
  | [ r53; r97 ] -> (r53, r97)
  | _ -> Alcotest.fail "Table 2 has two cores"

let test_table2 () =
  let r53, r97 = cores () in
  let count f =
    List.map
      (fun a -> string_of_int (f a))
      [ r53.Models.Tables.fossy_area; r53.ref_area; r97.fossy_area; r97.ref_area ]
  in
  check_keyed "Table 2" (table "Table 2" 0)
    [
      ("slice flip-flops", count (fun a -> a.Rtl.Area.flip_flops));
      ("4-input LUTs", count (fun a -> a.Rtl.Area.luts));
      ("occupied slices", count (fun a -> a.Rtl.Area.slices));
      ("total equivalent gates", count (fun a -> a.Rtl.Area.gates));
      ( "estimated frequency [MHz]",
        List.map f1 [ r53.fossy_mhz; r53.ref_mhz; r97.fossy_mhz; r97.ref_mhz ] );
    ]

let test_table2_claims () =
  let r53, r97 = cores () in
  let area (r : Models.Tables.table2_row) =
    signed
      ((float_of_int r.fossy_area.Rtl.Area.slices
        /. float_of_int r.ref_area.Rtl.Area.slices
       -. 1.0)
      *. 100.0)
    ^ " % slices"
  in
  let timing (r : Models.Tables.table2_row) =
    signed ((r.fossy_mhz /. r.ref_mhz -. 1.0) *. 100.0) ^ " % f_max"
  in
  let slowest = Float.min r53.fossy_mhz r97.fossy_mhz in
  let clock =
    if slowest >= 100.0 then Printf.sprintf "yes (≥ %d MHz)" (truncate slowest)
    else "no"
  in
  check_keyed "Table 2 claims"
    (List.map (fun row -> [ List.hd row; List.nth row 2 ]) (table "Table 2" 1))
    [
      ("IDWT53: FOSSY area overhead", [ area r53 ]);
      ("IDWT53: timing", [ timing r53 ]);
      ("IDWT97: FOSSY area", [ area r97 ]);
      ("IDWT97: FOSSY timing", [ timing r97 ]);
      ("both meet the 100 MHz system clock", [ clock ]);
    ]

let test_lines_of_code () =
  let r53, r97 = cores () in
  let row name (r : Models.Tables.table2_row) =
    ( name,
      [
        string_of_int r.systemc_loc;
        string_of_int r.fossy_vhdl_loc;
        Printf.sprintf "%.1f×"
          (float_of_int r.fossy_vhdl_loc /. float_of_int r.systemc_loc);
        string_of_int r.ref_vhdl_loc;
      ] )
  in
  check_keyed "lines of code" (table "Table 2" 2)
    [ row "IDWT53" r53; row "IDWT97" r97 ]

(* -- OPB burst sweep --------------------------------------------------- *)

(* The text between [before] and [after] in the section, whitespace
   collapsed. *)
let between lines before after =
  let text =
    String.concat " "
      (List.filter (( <> ) "") (String.split_on_char ' ' (String.concat " " lines)))
  in
  let find needle from =
    let n = String.length needle in
    let rec go i =
      if i + n > String.length text then Alcotest.failf "no %S in the text" needle
      else if String.sub text i n = needle then i
      else go (i + 1)
    in
    go from
  in
  let start = find before 0 + String.length before in
  String.trim (String.sub text start (find after start - start))

let test_burst_sweep () =
  let sweep =
    List.map
      (fun words ->
        let w = Models.Workload.make ~payload:false C.Lossy in
        let r =
          Models.Vta_models.run_custom ~bus_max_burst:words ~version:"7a"
            ~sw_tasks:4 ~idwt_p2p:false w
        in
        Printf.sprintf "%d → %.2f ms" words r.O.idwt_ms)
      [ 4; 8; 16; 32; 64 ]
  in
  let lines = section "Ablations" in
  Alcotest.(check string) "burst sweep"
    (String.concat "; " sweep)
    (between lines "IDWT time):" ". Short bursts");
  let _, lossy = Lazy.force table1 in
  let v7b = List.find (fun (r : O.t) -> r.version = "7b") lossy in
  Alcotest.(check string) "7b reference" (f1 v7b.idwt_ms ^ " ms")
    (between lines "(7b:" ")")

let () =
  Alcotest.run "experiments"
    [
      ("figure1", [ Alcotest.test_case "model table" `Quick test_figure1 ]);
      ( "table1",
        [
          Alcotest.test_case "simulation results" `Quick test_table1;
          Alcotest.test_case "paper claims" `Quick test_table1_claims;
        ] );
      ( "table2",
        [
          Alcotest.test_case "synthesis results" `Quick test_table2;
          Alcotest.test_case "paper claims" `Quick test_table2_claims;
          Alcotest.test_case "lines of code" `Quick test_lines_of_code;
        ] );
      ( "ablations",
        [ Alcotest.test_case "OPB burst sweep" `Quick test_burst_sweep ] );
    ]
