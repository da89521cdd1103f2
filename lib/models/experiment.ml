type version = V1 | V2 | V3 | V4 | V5 | V6a | V6b | V7a | V7b

let all_versions = [ V1; V2; V3; V4; V5; V6a; V6b; V7a; V7b ]

let version_name = function
  | V1 -> "1"
  | V2 -> "2"
  | V3 -> "3"
  | V4 -> "4"
  | V5 -> "5"
  | V6a -> "6a"
  | V6b -> "6b"
  | V7a -> "7a"
  | V7b -> "7b"

let version_of_name name =
  List.find_opt (fun v -> String.equal (version_name v) name) all_versions

(* The paper's "four independent Software Tasks performing the
   arithmetic decoding of disjoint parts of the image". *)
let sw_parallel_tasks = 4

let run_workload ?protection version w =
  let tasks = sw_parallel_tasks in
  match version with
  | V1 -> Decoder_system.run_sw_only ~version:"1" w
  | V2 -> Decoder_system.run_coprocessor ~version:"2" ~sw_tasks:1 w
  | V3 -> Decoder_system.run_pipeline ~version:"3" ~sw_tasks:1 w
  | V4 -> Decoder_system.run_coprocessor ~version:"4" ~sw_tasks:tasks w
  | V5 -> Decoder_system.run_pipeline ~version:"5" ~sw_tasks:tasks w
  | V6a ->
    Vta_models.run_custom ?protection ~version:"6a" ~sw_tasks:1 ~idwt_p2p:false w
  | V6b ->
    Vta_models.run_custom ?protection ~version:"6b" ~sw_tasks:1 ~idwt_p2p:true w
  | V7a ->
    Vta_models.run_custom ?protection ~version:"7a" ~sw_tasks:tasks
      ~idwt_p2p:false w
  | V7b ->
    Vta_models.run_custom ?protection ~version:"7b" ~sw_tasks:tasks
      ~idwt_p2p:true w

let run ?payload ?pool version mode =
  run_workload version (Workload.make ?payload ?pool mode)

(* Each version is a fully independent simulation (instance-based DES
   kernel, domain-local telemetry/fault state), so a version sweep
   fans out over the pool; inside a worker the workload stays
   sequential, keeping every outcome identical to a sequential
   sweep. Versions differ widely in cost (v0 is a function call, v7b
   a full wheel simulation), so the fan-out steals at single-version
   granularity. *)
let run_many ?payload ?(pool = Par.Pool.sequential) versions mode =
  Array.to_list
    (Par.Pool.map ~chunk:1 pool (Array.of_list versions) (fun v ->
         run ?payload v mode))

let run_all ?payload ?pool mode = run_many ?payload ?pool all_versions mode

type relation_check = { relation : string; holds : bool; detail : string }

let paper_relations lossless lossy =
  let get results version =
    match
      List.find_opt
        (fun r -> String.equal r.Outcome.version (version_name version))
        results
    with
    | Some r -> r
    | None -> invalid_arg "paper_relations: missing version"
  in
  let check relation holds detail = { relation; holds; detail } in
  let both name f =
    let h1, d1 = f (get lossless) "lossless" in
    let h2, d2 = f (get lossy) "lossy" in
    check name (h1 && h2) (d1 ^ "; " ^ d2)
  in
  let functional results =
    List.for_all (fun r -> r.Outcome.functional_ok <> Some false) results
  in
  [
    check "every model decodes the image correctly"
      (functional lossless && functional lossy)
      "payload compared bit-exactly against the reference decoder";
    both "v2 is ~10 % / ~19 % faster than v1 (co-processor gain)" (fun get label ->
        let s = Outcome.speedup_vs (get V1) (get V2) in
        let lo, hi = if label = "lossless" then (1.05, 1.15) else (1.14, 1.25) in
        (s >= lo && s <= hi, Printf.sprintf "%s: %.3fx" label s));
    both "v3 (pipelined) is at least as fast as v2" (fun get label ->
        let ok = (get V3).Outcome.decode_ms <= (get V2).Outcome.decode_ms in
        ( ok,
          Printf.sprintf "%s: %.1f vs %.1f ms" label (get V3).Outcome.decode_ms
            (get V2).Outcome.decode_ms ));
    both "v4 reaches the ~4.5x / ~5x speedup" (fun get label ->
        let s = Outcome.speedup_vs (get V1) (get V4) in
        let lo, hi = if label = "lossless" then (4.0, 5.0) else (4.3, 5.3) in
        (s >= lo && s <= hi, Printf.sprintf "%s: %.2fx" label s));
    both "v5 is slightly slower than v4 (7-client SO overhead)" (fun get label ->
        let d4 = (get V4).Outcome.decode_ms and d5 = (get V5).Outcome.decode_ms in
        (d5 > d4, Printf.sprintf "%s: %.1f vs %.1f ms" label d5 d4));
    both "VTA refinement inflates IDWT time by up to a factor 8 (3 -> 6a)"
      (fun get label ->
        let f = (get V6a).Outcome.idwt_ms /. (get V3).Outcome.idwt_ms in
        (f > 2.0 && f <= 8.5, Printf.sprintf "%s: %.1fx" label f));
    both "6b and 7b have equal IDWT times (P2P decouples the bus)"
      (fun get label ->
        let a = (get V6b).Outcome.idwt_ms and b = (get V7b).Outcome.idwt_ms in
        ( Float.abs (a -. b) < 0.005 *. a,
          Printf.sprintf "%s: %.2f vs %.2f ms" label a b ));
    both "7a's IDWT is slower than 6a's (four processors on one OPB)"
      (fun get label ->
        let a = (get V7a).Outcome.idwt_ms and b = (get V6a).Outcome.idwt_ms in
        (a > b, Printf.sprintf "%s: %.2f vs %.2f ms" label a b));
    (let f1 = Outcome.idwt_speedup_vs (get lossless V1) (get lossless V6b) in
     let f2 = Outcome.idwt_speedup_vs (get lossy V1) (get lossy V6b) in
     check "HW IDWT keeps a 12x / 16x advantage over software (1 -> 6b)"
       (f1 >= 10.0 && f1 <= 14.0 && f2 >= 14.0 && f2 <= 18.0)
       (Printf.sprintf "lossless: %.1fx; lossy: %.1fx" f1 f2));
    both "overall decode time stays software-dominated after refinement"
      (fun get label ->
        let app = (get V3).Outcome.decode_ms and vta = (get V6a).Outcome.decode_ms in
        ( vta < app *. 1.02,
          Printf.sprintf "%s: %.1f -> %.1f ms" label app vta ));
  ]
