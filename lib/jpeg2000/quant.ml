let step_for ~base_step ~levels ~level orientation =
  if base_step <= 0.0 then invalid_arg "Quant.step_for: base_step";
  if level < 0 || level > levels then invalid_arg "Quant.step_for: level";
  (* Finer steps for deeper (lower-frequency) bands: each level of
     synthesis roughly doubles a coefficient's footprint, and the
     nominal gain of the band scales the effective amplitude. *)
  let depth_scale = Float.pow 2.0 (float_of_int (level - 1)) in
  let gain_scale =
    Float.pow (sqrt 2.0) (float_of_int (Subband.gain_log2 orientation))
  in
  base_step *. gain_scale /. depth_scale

let quantise ~step values =
  if step <= 0.0 then invalid_arg "Quant.quantise: step";
  Array.map
    (fun x ->
      let q = int_of_float (floor (Float.abs x /. step)) in
      if x < 0.0 then -q else q)
    values

(* Inlined into the loops below, so the float it returns is stored
   unboxed instead of allocated per coefficient. *)
let[@inline] dequantise_one ~step q =
  if q = 0 then 0.0
  else
    let magnitude = (float_of_int (abs q) +. 0.5) *. step in
    if q < 0 then -.magnitude else magnitude

let dequantise ~step quantised =
  if step <= 0.0 then invalid_arg "Quant.dequantise: step";
  let values = Array.make (Array.length quantised) 0.0 in
  for i = 0 to Array.length quantised - 1 do
    values.(i) <- dequantise_one ~step quantised.(i)
  done;
  values

let dequantise_band ~step (plane : Plane.t) (m : Dwt97.matrix)
    (band : Subband.band) =
  let { Subband.x0; y0; w; h; _ } = band in
  if
    x0 < 0 || y0 < 0 || w < 0 || h < 0
    || x0 + w > plane.pw
    || y0 + h > plane.ph
    || x0 + w > m.mw
    || y0 + h > m.mh
    || Array.length m.values < m.mw * m.mh
  then invalid_arg "Quant.dequantise_band: band outside the plane";
  let src = plane.data and dst = m.values in
  for y = y0 to y0 + h - 1 do
    let ps = y * plane.pw and ms = y * m.mw in
    for x = x0 to x0 + w - 1 do
      Array.unsafe_set dst (ms + x)
        (dequantise_one ~step (Bigarray.Array1.unsafe_get src (ps + x)))
    done
  done

let max_error ~step = step
