type target =
  | Full
  | Region of { rx : int; ry : int; rw : int; rh : int }
  | Reduced of { discard : int }

type t = {
  id : int;
  trace : int64;
  stream : int;
  target : target;
  priority : int;
  arrival_ps : int;
  deadline_ps : int;
}

let trace_id ~seed id =
  Faults.Rng.hash64 (Int64.of_int seed) (Int64.of_int id)
let trace_to_string trace = Printf.sprintf "%016Lx" trace

let pp_target ppf = function
  | Full -> Format.fprintf ppf "full"
  | Region { rx; ry; rw; rh } ->
    Format.fprintf ppf "region %dx%d+%d+%d" rw rh rx ry
  | Reduced { discard } -> Format.fprintf ppf "reduced/%d" discard

type shape =
  | Open_loop of { rate_rps : float }
  | Closed_loop of { clients : int; think_ms : float }

type spec = {
  shape : shape;
  n : int;
  seed : int;
  deadline_ms : float;
  region_share : float;
  reduced_share : float;
}

(* -- spec parsing ---------------------------------------------------- *)

let parse_spec s =
  let shape_name, body =
    match String.index_opt s ':' with
    | None -> (s, "")
    | Some i ->
      (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  in
  let ( let* ) = Result.bind in
  let* pairs = Spec.parse_pairs body in
  let int_field key default check = Spec.int_field pairs key default check in
  let float_field key default check =
    Spec.float_field pairs key default (check key)
  in
  let known shape_keys =
    let all = [ "n"; "seed"; "deadline"; "region"; "reduced" ] @ shape_keys in
    Spec.check_known all pairs
  in
  let* shape =
    match shape_name with
    | "open" ->
      let* () = known [ "rate" ] in
      let* rate_rps = float_field "rate" 400.0 Spec.positive in
      Ok (Open_loop { rate_rps })
    | "closed" ->
      let* () = known [ "clients"; "think" ] in
      let* clients = int_field "clients" 4 (Spec.at_least "clients" 1) in
      let* think_ms = float_field "think" 2.0 Spec.non_negative in
      Ok (Closed_loop { clients; think_ms })
    | other ->
      Error (Printf.sprintf "unknown workload shape %S (use open or closed)" other)
  in
  let* n = int_field "n" 64 (Spec.at_least "n" 1) in
  let* seed = int_field "seed" 11 Spec.any in
  let* deadline_ms = float_field "deadline" 25.0 Spec.positive in
  let* region_share = float_field "region" 0.25 Spec.unit_interval in
  let* reduced_share = float_field "reduced" 0.25 Spec.unit_interval in
  if region_share +. reduced_share > 1.0 then
    Error
      (Printf.sprintf "region=%g and reduced=%g must sum to <= 1" region_share
         reduced_share)
  else Ok { shape; n; seed; deadline_ms; region_share; reduced_share }

let spec_to_string spec =
  let mix =
    Printf.sprintf "seed=%d,deadline=%g,region=%g,reduced=%g" spec.seed
      spec.deadline_ms spec.region_share spec.reduced_share
  in
  match spec.shape with
  | Open_loop { rate_rps } ->
    Printf.sprintf "open:n=%d,rate=%g,%s" spec.n rate_rps mix
  | Closed_loop { clients; think_ms } ->
    Printf.sprintf "closed:n=%d,clients=%d,think=%g,%s" spec.n clients think_ms
      mix

(* -- seeded draws ---------------------------------------------------- *)

let exp_draw rng ~mean =
  if mean <= 0.0 then 0.0
  else
    let u = Faults.Rng.float rng in
    -.mean *. Float.log (1.0 -. u)

let draw_target rng ~width ~height ~levels spec =
  let r = Faults.Rng.float rng in
  if r < spec.region_share then begin
    let side lim =
      let max_side = Stdlib.max 16 (lim / 2) in
      Stdlib.min lim (16 + Faults.Rng.int rng (Stdlib.max 1 (max_side - 15)))
    in
    let rw = side width and rh = side height in
    let rx = Faults.Rng.int rng (width - rw + 1) in
    let ry = Faults.Rng.int rng (height - rh + 1) in
    Region { rx; ry; rw; rh }
  end
  else if r < spec.region_share +. spec.reduced_share && levels > 0 then
    Reduced { discard = 1 + Faults.Rng.int rng levels }
  else Full

let draw_priority rng = Faults.Rng.int rng 4
