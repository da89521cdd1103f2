(* Whole-sample symmetric reflection of index [i] into [0, n). *)
let reflect n i = if i < 0 then -i else if i >= n then (2 * n) - 2 - i else i

let forward_1d src =
  let n = Array.length src in
  if n <= 1 then Array.copy src
  else begin
    let nl = (n + 1) / 2 and nh = n / 2 in
    let x i = src.(reflect n i) in
    let d = Array.make nh 0 in
    for i = 0 to nh - 1 do
      d.(i) <- x ((2 * i) + 1) - ((x (2 * i) + x ((2 * i) + 2)) asr 1)
    done;
    let dd i = if i < 0 then d.(0) else if i >= nh then d.(nh - 1) else d.(i) in
    let dst = Array.make n 0 in
    for i = 0 to nl - 1 do
      dst.(i) <- x (2 * i) + ((dd (i - 1) + dd i + 2) asr 2)
    done;
    Array.blit d 0 dst nl nh;
    dst
  end

let inverse_1d src =
  let n = Array.length src in
  if n <= 1 then Array.copy src
  else begin
    let nl = (n + 1) / 2 and nh = n / 2 in
    let d i = src.(nl + i) in
    let dd i = if i < 0 then d 0 else if i >= nh then d (nh - 1) else d i in
    let even = Array.make nl 0 in
    for i = 0 to nl - 1 do
      even.(i) <- src.(i) - ((dd (i - 1) + dd i + 2) asr 2)
    done;
    let ev j = if j >= nl then even.(nl - 1) else even.(j) in
    let dst = Array.make n 0 in
    for i = 0 to nl - 1 do
      dst.(2 * i) <- even.(i)
    done;
    for i = 0 to nh - 1 do
      dst.((2 * i) + 1) <- d i + ((even.(i) + ev (i + 1)) asr 1)
    done;
    dst
  end

(* Row/column access into the top-left [w]x[h] region of a plane,
   through bounds-checked Bigarray accesses of a known kind (one load
   or store each, no call). *)
let get_row (p : Plane.t) ~w y =
  Array.init w (fun x -> Bigarray.Array1.get p.data ((y * p.pw) + x))

let set_row (p : Plane.t) y row =
  Array.iteri (fun x v -> Bigarray.Array1.set p.data ((y * p.pw) + x) v) row

let get_col (p : Plane.t) ~h x =
  Array.init h (fun y -> Bigarray.Array1.get p.data ((y * p.pw) + x))

let set_col (p : Plane.t) x col =
  Array.iteri (fun y v -> Bigarray.Array1.set p.data ((y * p.pw) + x) v) col

let forward_level plane ~w ~h =
  for y = 0 to h - 1 do
    set_row plane y (forward_1d (get_row plane ~w y))
  done;
  for x = 0 to w - 1 do
    set_col plane x (forward_1d (get_col plane ~h x))
  done

let inverse_level plane ~w ~h =
  for x = 0 to w - 1 do
    set_col plane x (inverse_1d (get_col plane ~h x))
  done;
  for y = 0 to h - 1 do
    set_row plane y (inverse_1d (get_row plane ~w y))
  done

let check_levels levels =
  if levels < 0 then invalid_arg "Dwt53: negative level count"

let forward_plane plane ~levels =
  check_levels levels;
  let rec loop level w h =
    if level < levels then begin
      forward_level plane ~w ~h;
      loop (level + 1) (Subband.low_size w) (Subband.low_size h)
    end
  in
  loop 0 (Plane.width plane) (Plane.height plane)

let inverse_plane plane ~levels =
  check_levels levels;
  (* Undo from the deepest level outwards. *)
  let rec sizes level w h acc =
    if level = levels then acc
    else sizes (level + 1) (Subband.low_size w) (Subband.low_size h) ((w, h) :: acc)
  in
  List.iter
    (fun (w, h) -> inverse_level plane ~w ~h)
    (sizes 0 (Plane.width plane) (Plane.height plane) [])

(* -- in-place inverse over a flat plane ------------------------------

   The same lifting arithmetic as [inverse_1d] (integer, so the
   result is bit-identical), but reading and writing a {!Plane}'s
   Bigarray directly through one per-domain scratch line instead of
   allocating [Array.init] rows/columns and intermediate arrays per
   line — on the parallel path those per-line allocations are minor-
   heap churn every worker domain pays. Every index stays inside the
   plane because [w <= pw] and [h <= ph] at every level. *)

(* One line of [n >= 2] samples at [base + i * stride]: copy it to
   [line] (lows, then highs), then write the interleaved output in one
   sweep, carrying each even sample to the odd one after it. [d]'s
   type is spelled out so its accesses compile to plain loads and
   stores rather than generic Bigarray calls. *)
let inverse_line_flat
    (d : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t) line ~n
    ~base ~stride =
  for i = 0 to n - 1 do
    line.(i) <- Bigarray.Array1.unsafe_get d (base + (i * stride))
  done;
  let nl = (n + 1) / 2 and nh = n / 2 in
  (* even 0: both high neighbours clamp to [line.(nl)] *)
  let e = ref (line.(0) - ((line.(nl) + line.(nl) + 2) asr 2)) in
  for i = 0 to nh - 1 do
    Bigarray.Array1.unsafe_set d (base + (2 * i * stride)) !e;
    let e1 =
      if i + 1 >= nl then !e
      else
        line.(i + 1)
        - ((line.(nl + i) + line.(nl + if i + 1 >= nh then nh - 1 else i + 1) + 2)
           asr 2)
    in
    Bigarray.Array1.unsafe_set d
      (base + (((2 * i) + 1) * stride))
      (line.(nl + i) + ((!e + e1) asr 1));
    e := e1
  done;
  if nl > nh then Bigarray.Array1.unsafe_set d (base + (2 * nh * stride)) !e

let inverse_level_flat (p : Plane.t) ~w ~h =
  let line = Plane.Scratch.ints (Stdlib.max w h) in
  (* Columns first, then rows — the order of [inverse_level]. *)
  if h > 1 then
    for x = 0 to w - 1 do
      inverse_line_flat p.data line ~n:h ~base:x ~stride:p.pw
    done;
  if w > 1 then
    for y = 0 to h - 1 do
      inverse_line_flat p.data line ~n:w ~base:(y * p.pw) ~stride:1
    done

let inverse_flat p ~levels =
  check_levels levels;
  let rec sizes level w h acc =
    if level = levels then acc
    else sizes (level + 1) (Subband.low_size w) (Subband.low_size h) ((w, h) :: acc)
  in
  List.iter
    (fun (w, h) -> inverse_level_flat p ~w ~h)
    (sizes 0 (Plane.width p) (Plane.height p) [])
