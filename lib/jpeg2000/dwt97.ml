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

(* -- in-place inverse over a per-domain scratch line -----------------

   [inverse_1d] allocates a line copy per row/column (plus the
   [Array.init]/[set_row] temporaries around it); this variant stages
   each line in one [Plane.Scratch] float buffer instead. The
   floating-point operations — K scaling on load, then the four
   lifting steps via [lift] — run in exactly the order of
   [inverse_1d], so the reconstruction is bit-identical. *)

let inverse_line_ip m y n ~base ~stride =
  let nl = (n + 1) / 2 and nh = n / 2 in
  for i = 0 to nl - 1 do
    y.(2 * i) <- m.values.(base + (i * stride)) *. kappa
  done;
  for i = 0 to nh - 1 do
    y.((2 * i) + 1) <- m.values.(base + ((nl + i) * stride)) /. kappa
  done;
  lift y n ~parity:0 (-.delta);
  lift y n ~parity:1 (-.gamma);
  lift y n ~parity:0 (-.beta);
  lift y n ~parity:1 (-.alpha);
  for i = 0 to n - 1 do
    m.values.(base + (i * stride)) <- y.(i)
  done

let inverse_level_ip m ~w ~h =
  let y = Plane.Scratch.floats (Stdlib.max w h) in
  (* Columns first, then rows — the order of [inverse_level]. *)
  if h > 1 then
    for x = 0 to w - 1 do
      inverse_line_ip m y h ~base:x ~stride:m.mw
    done;
  if w > 1 then
    for yr = 0 to h - 1 do
      inverse_line_ip m y w ~base:(yr * m.mw) ~stride:1
    done

let inverse_ip m ~levels =
  check_levels levels;
  let rec sizes level w h acc =
    if level = levels then acc
    else sizes (level + 1) (Subband.low_size w) (Subband.low_size h) ((w, h) :: acc)
  in
  List.iter (fun (w, h) -> inverse_level_ip m ~w ~h) (sizes 0 m.mw m.mh [])
