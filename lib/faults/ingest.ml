type profile = {
  loss : float;
  dup : float;
  reorder : float;
  window : int;
  stall : float;
  stall_max_ps : int;
}

let no_faults =
  {
    loss = 0.0;
    dup = 0.0;
    reorder = 0.0;
    window = 4;
    stall = 0.0;
    stall_max_ps = 0;
  }

type spec = { chunk_bytes : int; gap_ps : int; profile : profile }

let ps_per_us = 1_000_000

let default_spec =
  {
    chunk_bytes = 512;
    gap_ps = 100 * ps_per_us;
    profile = { no_faults with stall_max_ps = 1000 * ps_per_us };
  }

(* -- spec strings ---------------------------------------------------- *)

let parse_spec s =
  let ( let* ) = Result.bind in
  let* pairs = Spec.parse_pairs s in
  let* () =
    Spec.check_known ~what:"ingest"
      [ "chunk"; "gap_us"; "loss"; "dup"; "reorder"; "window"; "stall";
        "stall_us" ]
      pairs
  in
  let int_field key default check = Spec.int_field pairs key default check in
  let float_field key default check =
    Spec.float_field pairs key default check
  in
  let positive key n = Spec.at_least key 1 n in
  let rate key f = Spec.unit_interval key f in
  let positive_us key f =
    Result.map
      (fun f -> int_of_float ((f *. float_of_int ps_per_us) +. 0.5))
      (Spec.positive key f)
  in
  let d = default_spec in
  let* chunk_bytes = int_field "chunk" d.chunk_bytes (positive "chunk") in
  let* gap_ps =
    float_field "gap_us"
      d.gap_ps
      (fun f -> positive_us "gap_us" f)
  in
  let* loss = float_field "loss" d.profile.loss (rate "loss") in
  let* dup = float_field "dup" d.profile.dup (rate "dup") in
  let* reorder = float_field "reorder" d.profile.reorder (rate "reorder") in
  let* window = int_field "window" d.profile.window (positive "window") in
  let* stall = float_field "stall" d.profile.stall (rate "stall") in
  let* stall_max_ps =
    float_field "stall_us"
      d.profile.stall_max_ps
      (fun f -> positive_us "stall_us" f)
  in
  Ok
    {
      chunk_bytes;
      gap_ps;
      profile = { loss; dup; reorder; window; stall; stall_max_ps };
    }

let spec_to_string spec =
  let us ps = float_of_int ps /. float_of_int ps_per_us in
  Printf.sprintf
    "chunk=%d,gap_us=%g,loss=%g,dup=%g,reorder=%g,window=%d,stall=%g,stall_us=%g"
    spec.chunk_bytes (us spec.gap_ps) spec.profile.loss spec.profile.dup
    spec.profile.reorder spec.profile.window spec.profile.stall
    (us spec.profile.stall_max_ps)

(* -- schedules ------------------------------------------------------- *)

type chunk = { c_offset : int; c_length : int; c_arrival_ps : int }

type delivery = {
  chunks : chunk list;
  sent : int;
  lost : int;
  duped : int;
  reordered : int;
  stall_ps : int;
}

let schedule ~seed spec ~start_ps len =
  let rng = Rng.create seed in
  let p = spec.profile in
  let sent = (len + spec.chunk_bytes - 1) / spec.chunk_bytes in
  let lost = ref 0 and duped = ref 0 and reordered = ref 0 in
  let stall_total = ref 0 in
  let delay = ref 0 in
  let out = ref [] in
  for i = 0 to sent - 1 do
    let offset = i * spec.chunk_bytes in
    let length = Stdlib.min spec.chunk_bytes (len - offset) in
    (* Fixed per-chunk draw order — stall, loss, reorder, dup — so the
       schedule is a pure function of (seed, spec, len). *)
    if p.stall > 0.0 && p.stall_max_ps > 0 && Rng.float rng < p.stall then begin
      let s = 1 + Rng.int rng p.stall_max_ps in
      delay := !delay + s;
      stall_total := !stall_total + s
    end;
    let base = start_ps + (i * spec.gap_ps) + !delay in
    if p.loss > 0.0 && Rng.float rng < p.loss then incr lost
    else begin
      let arrival =
        if p.reorder > 0.0 && Rng.float rng < p.reorder then begin
          incr reordered;
          (* slip behind up to [window] successors, landing half a gap
             past the last of them so the displacement is unambiguous *)
          let slip = 1 + Rng.int rng p.window in
          base + (slip * spec.gap_ps) + (spec.gap_ps / 2)
        end
        else base
      in
      out := { c_offset = offset; c_length = length; c_arrival_ps = arrival } :: !out;
      if p.dup > 0.0 && Rng.float rng < p.dup then begin
        incr duped;
        out :=
          {
            c_offset = offset;
            c_length = length;
            c_arrival_ps = arrival + Stdlib.max 1 (spec.gap_ps / 4);
          }
          :: !out
      end
    end
  done;
  let chunks =
    List.sort
      (fun a b ->
        let c = Int.compare a.c_arrival_ps b.c_arrival_ps in
        if c <> 0 then c else Int.compare a.c_offset b.c_offset)
      !out
  in
  {
    chunks;
    sent;
    lost = !lost;
    duped = !duped;
    reordered = !reordered;
    stall_ps = !stall_total;
  }
