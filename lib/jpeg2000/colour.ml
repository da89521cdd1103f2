let dc_shift_forward ~bit_depth samples =
  let offset = 1 lsl (bit_depth - 1) in
  Array.iteri (fun i v -> samples.(i) <- v - offset) samples

(* Shift and clamp one sample to [0, top], with int comparisons (a
   polymorphic [min]/[max] would be a C call per sample). *)
let[@inline] shift_clamp ~offset ~top v =
  let s = v + offset in
  if s < 0 then 0 else if s > top then top else s

let dc_shift_inverse ~bit_depth samples =
  let offset = 1 lsl (bit_depth - 1) in
  let top = (1 lsl bit_depth) - 1 in
  for i = 0 to Array.length samples - 1 do
    samples.(i) <- shift_clamp ~offset ~top samples.(i)
  done

let check_lengths a b c name =
  if Array.length a <> Array.length b || Array.length b <> Array.length c then
    invalid_arg (name ^ ": component length mismatch")

(* Reversible component transform (ISO 15444-1 G.1):
   Y = floor((R + 2G + B) / 4); Cb = B - G; Cr = R - G. *)
let rct_forward r g b =
  check_lengths r g b "Colour.rct_forward";
  for i = 0 to Array.length r - 1 do
    let red = r.(i) and green = g.(i) and blue = b.(i) in
    let y =
      (* Arithmetic shift floors also for negative sums. *)
      (red + (2 * green) + blue) asr 2
    in
    r.(i) <- y;
    g.(i) <- blue - green;
    b.(i) <- red - green
  done

let rct_inverse y cb cr =
  check_lengths y cb cr "Colour.rct_inverse";
  for i = 0 to Array.length y - 1 do
    let green = y.(i) - ((cb.(i) + cr.(i)) asr 2) in
    let blue = cb.(i) + green in
    let red = cr.(i) + green in
    y.(i) <- red;
    cb.(i) <- green;
    cr.(i) <- blue
  done

(* Irreversible component transform (ISO 15444-1 G.2). The inverse
   coefficients are derived from the luminance weights rather than
   taken as the spec's 5-digit roundings, so forward∘inverse is exact
   to floating-point precision. *)
let w_r = 0.299
let w_g = 0.587
let w_b = 0.114

let ict_forward r g b =
  if Array.length r <> Array.length g || Array.length g <> Array.length b then
    invalid_arg "Colour.ict_forward: component length mismatch";
  for i = 0 to Array.length r - 1 do
    let red = r.(i) and green = g.(i) and blue = b.(i) in
    let y = (w_r *. red) +. (w_g *. green) +. (w_b *. blue) in
    r.(i) <- y;
    g.(i) <- 0.5 /. (1.0 -. w_b) *. (blue -. y);
    b.(i) <- 0.5 /. (1.0 -. w_r) *. (red -. y)
  done

let k_cr = 2.0 *. (1.0 -. w_r)
let k_cb = 2.0 *. (1.0 -. w_b)

let ict_inverse y cb cr =
  if Array.length y <> Array.length cb || Array.length cb <> Array.length cr
  then invalid_arg "Colour.ict_inverse: component length mismatch";
  for i = 0 to Array.length y - 1 do
    let lum = y.(i) and u = cb.(i) and v = cr.(i) in
    let red = lum +. (k_cr *. v) in
    let blue = lum +. (k_cb *. u) in
    let green = (lum -. (w_r *. red) -. (w_b *. blue)) /. w_g in
    y.(i) <- red;
    cb.(i) <- green;
    cr.(i) <- blue
  done

(* -- the decoder's last stage in one pass ------------------------------

   Colour transform, rounding (lossy) and [dc_shift_inverse] fused per
   sample and written straight into the tile's output planes: the same
   arithmetic in the same order as the oracles above, so the samples
   are bit-identical to the multi-stage chain, without its
   intermediate planes and extra passes. *)

(* The output planes' 16-bit store (see image.mli): one store per
   sample, unchecked. Every loop below first checks that each plane
   holds exactly [n] samples, and every value it stores is clamped to
   [0, 2^bit_depth - 1] with [bit_depth <= 16]. *)
external set16 : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"

let shift_range name ~bit_depth =
  if bit_depth < 1 || bit_depth > 16 then invalid_arg (name ^ ": bit_depth");
  (1 lsl (bit_depth - 1), (1 lsl bit_depth) - 1)

let output name n (p : Image.plane) =
  if Bytes.length p.Image.data <> 2 * n then
    invalid_arg (name ^ ": output plane size mismatch");
  p.Image.data

let coefficients name n (p : Plane.t) =
  if Plane.width p * Plane.height p <> n then
    invalid_arg (name ^ ": component length mismatch");
  p.Plane.data

let rct_inverse_shift ~bit_depth y cb cr ~r ~g ~b =
  let name = "Colour.rct_inverse_shift" in
  let offset, top = shift_range name ~bit_depth in
  let n = Plane.width y * Plane.height y in
  let y = coefficients name n y
  and cb = coefficients name n cb
  and cr = coefficients name n cr in
  let r = output name n r and g = output name n g and b = output name n b in
  for i = 0 to n - 1 do
    let u = Bigarray.Array1.unsafe_get cb i
    and v = Bigarray.Array1.unsafe_get cr i in
    let green = Bigarray.Array1.unsafe_get y i - ((u + v) asr 2) in
    set16 r (2 * i) (shift_clamp ~offset ~top (v + green));
    set16 g (2 * i) (shift_clamp ~offset ~top green);
    set16 b (2 * i) (shift_clamp ~offset ~top (u + green))
  done

let shift_inverse ~bit_depth p ~into =
  let name = "Colour.shift_inverse" in
  let offset, top = shift_range name ~bit_depth in
  let n = Plane.width p * Plane.height p in
  let src = coefficients name n p and dst = output name n into in
  for i = 0 to n - 1 do
    set16 dst (2 * i)
      (shift_clamp ~offset ~top (Bigarray.Array1.unsafe_get src i))
  done

let[@inline] round_shift ~offset ~top v =
  shift_clamp ~offset ~top (int_of_float (Float.round v))

let ict_inverse_shift ~bit_depth y cb cr ~r ~g ~b =
  let name = "Colour.ict_inverse_shift" in
  if Array.length y <> Array.length cb || Array.length cb <> Array.length cr
  then invalid_arg (name ^ ": component length mismatch");
  let offset, top = shift_range name ~bit_depth in
  let n = Array.length y in
  let r = output name n r and g = output name n g and b = output name n b in
  for i = 0 to n - 1 do
    let lum = y.(i) and u = cb.(i) and v = cr.(i) in
    let red = lum +. (k_cr *. v) in
    let blue = lum +. (k_cb *. u) in
    let green = (lum -. (w_r *. red) -. (w_b *. blue)) /. w_g in
    set16 r (2 * i) (round_shift ~offset ~top red);
    set16 g (2 * i) (round_shift ~offset ~top green);
    set16 b (2 * i) (round_shift ~offset ~top blue)
  done

let round_shift_inverse ~bit_depth values ~into =
  let name = "Colour.round_shift_inverse" in
  let offset, top = shift_range name ~bit_depth in
  let n = Array.length values in
  let dst = output name n into in
  for i = 0 to n - 1 do
    set16 dst (2 * i) (round_shift ~offset ~top values.(i))
  done
