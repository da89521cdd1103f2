(* splitmix64: tiny, fast, and with a pure mixing function we can use
   both as a sequential stream and as a stateless hash. Reference:
   Steele, Lea & Flood, "Fast splittable pseudorandom number
   generators", OOPSLA 2014. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = Int64.of_int seed }

let next t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t = { state = next t }

let hash64 a b = mix64 (Int64.add (Int64.mul a 0x2545F4914F6CDD1DL) b)

let float t =
  (* 53 high bits -> [0, 1) *)
  Int64.to_float (Int64.shift_right_logical (next t) 11) *. 0x1p-53

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  Int64.to_int (Int64.rem (Int64.shift_right_logical (next t) 1) (Int64.of_int bound))

let bool t = Int64.logand (next t) 1L = 1L
