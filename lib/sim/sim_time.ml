type t = int

let zero = 0

let of_ps n =
  if n < 0 then invalid_arg "Sim_time.of_ps: negative" else n

let ns n = of_ps (n * 1_000)
let us n = of_ps (n * 1_000_000)
let ms n = of_ps (n * 1_000_000_000)

let of_ms_float x =
  if x < 0.0 then invalid_arg "Sim_time.of_ms_float: negative"
  else int_of_float (Float.round (x *. 1_000_000_000.0))

let to_ps t = t
let to_float_ms t = float_of_int t /. 1_000_000_000.0

let add a b = a + b

let sub a b =
  if b > a then invalid_arg "Sim_time.sub: negative result" else a - b

let mul_int t n =
  if n < 0 then invalid_arg "Sim_time.mul_int: negative" else t * n

let cycles ~hz n =
  if hz <= 0 then invalid_arg "Sim_time.cycles: non-positive frequency"
  else if n < 0 then invalid_arg "Sim_time.cycles: negative count"
  else n * (1_000_000_000_000 / hz)

let period ~hz = cycles ~hz 1

let compare = Int.compare
let equal = Int.equal
let ( < ) (a : t) b = Stdlib.( < ) a b
let ( <= ) (a : t) b = Stdlib.( <= ) a b
let ( > ) (a : t) b = Stdlib.( > ) a b
let ( >= ) (a : t) b = Stdlib.( >= ) a b
let max (a : t) b = Stdlib.max a b
let is_zero t = t = 0

let pp fmt t =
  let f = float_of_int t in
  if t = 0 then Format.pp_print_string fmt "0 s"
  else if t mod 1_000_000_000_000 = 0 then
    Format.fprintf fmt "%d s" (t / 1_000_000_000_000)
  else if t >= 1_000_000_000 then
    Format.fprintf fmt "%g ms" (f /. 1_000_000_000.0)
  else if t >= 1_000_000 then Format.fprintf fmt "%g us" (f /. 1_000_000.0)
  else if t >= 1_000 then Format.fprintf fmt "%g ns" (f /. 1_000.0)
  else Format.fprintf fmt "%d ps" t

let to_string t = Format.asprintf "%a" pp t
