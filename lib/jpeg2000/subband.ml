type orientation = LL | HL | LH | HH

type band = {
  level : int;
  orientation : orientation;
  x0 : int;
  y0 : int;
  w : int;
  h : int;
}

let low_size n = (n + 1) / 2

let decompose ~width ~height ~levels =
  if width <= 0 || height <= 0 then invalid_arg "Subband.decompose: size";
  if levels < 0 then invalid_arg "Subband.decompose: levels";
  (* Walk down the pyramid, collecting the detail bands of each level
     (finest = level 1 spans the full tile). *)
  let rec details level w h acc =
    if level > levels then (w, h, acc)
    else
      let lw = low_size w and lh = low_size h in
      let bands =
        [
          { level; orientation = HL; x0 = lw; y0 = 0; w = w - lw; h = lh };
          { level; orientation = LH; x0 = 0; y0 = lh; w = lw; h = h - lh };
          { level; orientation = HH; x0 = lw; y0 = lh; w = w - lw; h = h - lh };
        ]
      in
      details (level + 1) lw lh (bands :: acc)
  in
  let llw, llh, detail_groups = details 1 width height [] in
  let ll = { level = levels; orientation = LL; x0 = 0; y0 = 0; w = llw; h = llh } in
  ll :: List.concat detail_groups

let decompose_array ~width ~height ~levels =
  Array.of_list (decompose ~width ~height ~levels)

let gain_log2 = function LL -> 0 | HL -> 1 | LH -> 1 | HH -> 2

let orientation_code = function LL -> 0 | HL -> 1 | LH -> 2 | HH -> 3

let orientation_of_code = function
  | 0 -> LL
  | 1 -> HL
  | 2 -> LH
  | 3 -> HH
  | n -> invalid_arg (Printf.sprintf "Subband.orientation_of_code: %d" n)
