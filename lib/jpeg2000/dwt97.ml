type matrix = { mw : int; mh : int; values : float array }

let matrix_create ~w ~h =
  if w <= 0 || h <= 0 then invalid_arg "Dwt97.matrix_create: size";
  { mw = w; mh = h; values = Array.make (w * h) 0.0 }

let matrix_get m ~x ~y = m.values.((y * m.mw) + x)
let matrix_set m ~x ~y v = m.values.((y * m.mw) + x) <- v

(* Lifting constants of the Daubechies (9,7) filter bank
   (ISO/IEC 15444-1 Annex F). *)
let alpha = -1.586134342059924
let beta = -0.052980118572961
let gamma = 0.882911075530934
let delta = 0.443506852043971
let kappa = 1.230174104914001

(* One lifting step over the interleaved signal ([n >= 2]): for every
   index with the given parity, add coef * (left neighbour + right
   neighbour), with whole-sample symmetric extension at the ends
   ([y.(-1)] is [y.(1)], [y.(n)] is [y.(n-2)]). The two ends are
   peeled off so the interior loop reads its neighbours directly: no
   per-read reflection call, and no helper that would box the float
   it returns. *)
let lift y n ~parity coef =
  let last = n - 1 in
  let i = ref parity in
  if parity = 0 then begin
    y.(0) <- y.(0) +. (coef *. (y.(1) +. y.(1)));
    i := 2
  end;
  while !i < last do
    y.(!i) <- y.(!i) +. (coef *. (y.(!i - 1) +. y.(!i + 1)));
    i := !i + 2
  done;
  if !i = last then
    y.(last) <- y.(last) +. (coef *. (y.(last - 1) +. y.(last - 1)))

let forward_1d src =
  let n = Array.length src in
  if n <= 1 then Array.copy src
  else begin
    let y = Array.copy src in
    lift y n ~parity:1 alpha;
    lift y n ~parity:0 beta;
    lift y n ~parity:1 gamma;
    lift y n ~parity:0 delta;
    let nl = (n + 1) / 2 and nh = n / 2 in
    let dst = Array.make n 0.0 in
    for i = 0 to nl - 1 do
      dst.(i) <- y.(2 * i) /. kappa
    done;
    for i = 0 to nh - 1 do
      dst.(nl + i) <- y.((2 * i) + 1) *. kappa
    done;
    dst
  end

let inverse_1d src =
  let n = Array.length src in
  if n <= 1 then Array.copy src
  else begin
    let nl = (n + 1) / 2 and nh = n / 2 in
    let y = Array.make n 0.0 in
    for i = 0 to nl - 1 do
      y.(2 * i) <- src.(i) *. kappa
    done;
    for i = 0 to nh - 1 do
      y.((2 * i) + 1) <- src.(nl + i) /. kappa
    done;
    lift y n ~parity:0 (-.delta);
    lift y n ~parity:1 (-.gamma);
    lift y n ~parity:0 (-.beta);
    lift y n ~parity:1 (-.alpha);
    y
  end

let get_row m ~w y = Array.init w (fun x -> matrix_get m ~x ~y)
let set_row m y row = Array.iteri (fun x v -> matrix_set m ~x ~y v) row
let get_col m ~h x = Array.init h (fun y -> matrix_get m ~x ~y)
let set_col m x col = Array.iteri (fun y v -> matrix_set m ~x ~y v) col

let forward_level m ~w ~h =
  for y = 0 to h - 1 do
    set_row m y (forward_1d (get_row m ~w y))
  done;
  for x = 0 to w - 1 do
    set_col m x (forward_1d (get_col m ~h x))
  done

let inverse_level m ~w ~h =
  for x = 0 to w - 1 do
    set_col m x (inverse_1d (get_col m ~h x))
  done;
  for y = 0 to h - 1 do
    set_row m y (inverse_1d (get_row m ~w y))
  done

let check_levels levels =
  if levels < 0 then invalid_arg "Dwt97: negative level count"

let forward m ~levels =
  check_levels levels;
  let rec loop level w h =
    if level < levels then begin
      forward_level m ~w ~h;
      loop (level + 1) (Subband.low_size w) (Subband.low_size h)
    end
  in
  loop 0 m.mw m.mh

let inverse m ~levels =
  check_levels levels;
  let rec sizes level w h acc =
    if level = levels then acc
    else sizes (level + 1) (Subband.low_size w) (Subband.low_size h) ((w, h) :: acc)
  in
  List.iter (fun (w, h) -> inverse_level m ~w ~h) (sizes 0 m.mw m.mh [])

(* -- the decoder's inverse, in place on a float plane ---------------

   [inverse] gathers every column and row into a fresh line. This one
   stages each level's [w]x[h] region in one per-domain scratch buffer
   ([Plane.Scratch.floats]). The column pass loads the plane's rows
   into it interleaved and K-scaled and lifts whole rows, so no column
   is ever gathered; the row pass then reads each lifted row once and
   writes the reconstructed row into the plane. Every coefficient goes
   through the floating-point operations of [inverse_1d] in the same
   order, so the reconstruction is bit-identical to [inverse]'s. *)

(* Row [dst] += coef * (row [a] + row [b]), [w] wide. *)
let[@inline] lift_row s ~w ~dst ~a ~b coef =
  for x = 0 to w - 1 do
    s.(dst + x) <- s.(dst + x) +. (coef *. (s.(a + x) +. s.(b + x)))
  done

(* [lift] down every column of the [n >= 2] rows of width [w] in [s]
   at once, with the same symmetric extension. *)
let lift_rows s ~w n ~parity coef =
  let last = n - 1 in
  let i = ref parity in
  if parity = 0 then begin
    lift_row s ~w ~dst:0 ~a:w ~b:w coef;
    i := 2
  end;
  while !i < last do
    let dst = !i * w in
    lift_row s ~w ~dst ~a:(dst - w) ~b:(dst + w) coef;
    i := !i + 2
  done;
  if !i = last then begin
    let dst = last * w in
    lift_row s ~w ~dst ~a:(dst - w) ~b:(dst - w) coef
  end

(* [inverse_1d] of the [n >= 2] coefficients at [src] in [s] (lows,
   then highs), written to [d] at [dst]. The four lifting steps run as
   one pipeline, each a pair of samples behind the one before, so a
   value is read once, stays in a register through the steps and is
   stored once. With [e] the even (low) and [o] the odd (high)
   samples of the interleaved line, pair [k] of step 1 needs the
   scaled [o(k-1)] and [o(k)], step 2 the step-1 [e(k)] and [e(k+1)],
   and so on; [lift]'s symmetric extension is the reflection
   [o(-1) = o(0)] of steps 1 and 3 and, at the end of the line,
   [o(no) = o(no-1)] (odd [n]) or [e(ne) = e(ne-1)] (even [n]).
   [d]'s type is spelled out so its stores compile to plain stores
   rather than generic Bigarray calls. *)
let inverse_row s ~src n
    (d : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t)
    ~dst =
  let ne = (n + 1) / 2 and no = n / 2 in
  let hi = src + ne in
  let c1 = -.delta and c2 = -.gamma and c3 = -.beta and c4 = -.alpha in
  (* [o] is o(k-1), [e1] step 1's e(k-1), [o2] and [e3] steps 2 and
     3 at k-2. *)
  let o = ref (s.(hi) /. kappa) in
  let e1 = ref ((s.(src) *. kappa) +. (c1 *. (!o +. !o))) in
  let o2 = ref 0.0 and e3 = ref 0.0 in
  for k = 1 to ne - 1 do
    let ok = if k < no then s.(hi + k) /. kappa else !o in
    let e1k = (s.(src + k) *. kappa) +. (c1 *. (!o +. ok)) in
    let o2k = !o +. (c2 *. (!e1 +. e1k)) in
    let o2l = if k = 1 then o2k else !o2 in
    let e3k = !e1 +. (c3 *. (o2l +. o2k)) in
    Bigarray.Array1.unsafe_set d (dst + (2 * (k - 1))) e3k;
    if k >= 2 then
      Bigarray.Array1.unsafe_set d
        (dst + (2 * (k - 2)) + 1)
        (!o2 +. (c4 *. (!e3 +. e3k)));
    o := ok;
    e1 := e1k;
    o2 := o2k;
    e3 := e3k
  done;
  (* The last pair: e(ne-1) of steps 3 and 4, and o(ne-1) of all four
     steps when [n] is even. *)
  let last = ne - 1 in
  let o2k = if no = ne then !o +. (c2 *. (!e1 +. !e1)) else !o2 in
  let o2l = if last = 0 then o2k else !o2 in
  let e3k = !e1 +. (c3 *. (o2l +. o2k)) in
  Bigarray.Array1.unsafe_set d (dst + (2 * last)) e3k;
  if last >= 1 then
    Bigarray.Array1.unsafe_set d
      (dst + (2 * (last - 1)) + 1)
      (!o2 +. (c4 *. (!e3 +. e3k)));
  if no = ne then
    Bigarray.Array1.unsafe_set d
      (dst + (2 * last) + 1)
      (o2k +. (c4 *. (e3k +. e3k)))

let inverse_level_flat (p : Plane.floats) ~w ~h =
  let d = p.Plane.data and pw = p.Plane.pw in
  let s = Plane.Scratch.floats (w * h) in
  (* Column pass, or the single row as it is: a length-1 line inverts
     to itself. *)
  if h > 1 then begin
    let nl = (h + 1) / 2 and nh = h / 2 in
    for i = 0 to nl - 1 do
      let src = i * pw and dst = 2 * i * w in
      for x = 0 to w - 1 do
        s.(dst + x) <- Bigarray.Array1.unsafe_get d (src + x) *. kappa
      done
    done;
    for i = 0 to nh - 1 do
      let src = (nl + i) * pw and dst = ((2 * i) + 1) * w in
      for x = 0 to w - 1 do
        s.(dst + x) <- Bigarray.Array1.unsafe_get d (src + x) /. kappa
      done
    done;
    lift_rows s ~w h ~parity:0 (-.delta);
    lift_rows s ~w h ~parity:1 (-.gamma);
    lift_rows s ~w h ~parity:0 (-.beta);
    lift_rows s ~w h ~parity:1 (-.alpha)
  end
  else
    for x = 0 to w - 1 do
      s.(x) <- Bigarray.Array1.unsafe_get d x
    done;
  (* Row pass, from the region into the plane. *)
  for r = 0 to h - 1 do
    if w > 1 then inverse_row s ~src:(r * w) w d ~dst:(r * pw)
    else Bigarray.Array1.unsafe_set d (r * pw) s.(r)
  done

let inverse_flat (p : Plane.floats) ~levels =
  check_levels levels;
  (* Deepest level first; [w <= pw] and [h <= ph] at every level, so
     every plane index above stays inside the plane. *)
  let rec level l w h =
    if l < levels then begin
      level (l + 1) (Subband.low_size w) (Subband.low_size h);
      inverse_level_flat p ~w ~h
    end
  in
  level 0 p.Plane.pw p.Plane.ph
