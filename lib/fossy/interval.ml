(* Interval + known-bits domain. Soundness reference: Interp.
   Native int arithmetic there wraps modulo 2^63 on overflow, so an
   overflowing bound widens to the full int range (saturating would
   claim a bound the wrapped value can escape); the low bits stay
   sound regardless because wrap is a congruence mod every 2^k. *)

type t = { lo : int; hi : int; known : int; bits : int }

let min_i = Stdlib.min_int
let max_i = Stdlib.max_int

(* ---- checked native arithmetic: None = would overflow ---- *)

let add_opt a b =
  let s = a + b in
  if (a >= 0 && b >= 0 && s < 0) || (a < 0 && b < 0 && s >= 0) then None
  else Some s

let sub_opt a b =
  let d = a - b in
  if (a >= 0 && b < 0 && d < 0) || (a < 0 && b >= 0 && d >= 0) then None
  else Some d

let mul_opt a b =
  if a = 0 || b = 0 then Some 0
  else
    let fp = float_of_int a *. float_of_int b in
    (* max_int is ~4.61e18; the float product of two ints is exact to
       ~1 ulp, so anything under 4.0e18 is safely representable and
       anything we reject merely loses precision, not soundness. *)
    if Float.abs fp < 4.0e18 then Some (a * b) else None

let shl_opt a k =
  if a = 0 then Some 0
  else if k >= 62 then None
  else
    let r = a lsl k in
    if r asr k = a then Some r else None

(* ---- bit-prefix helpers ---- *)

(* Mask with every bit at or below the highest set bit of [x]. *)
let smear x =
  let x = x lor (x lsr 1) in
  let x = x lor (x lsr 2) in
  let x = x lor (x lsr 4) in
  let x = x lor (x lsr 8) in
  let x = x lor (x lsr 16) in
  x lor (x lsr 32)

(* Shared high-bit prefix of everything in [lo, hi]. *)
let prefix_of_range lo hi =
  if lo = hi then (-1, lo)
  else
    let m = lnot (smear (lo lxor hi)) in
    (m, lo land m)

(* Interval implied by the known bits, when the sign region is known
   (unknown mask non-negative): unknown bits span a contiguous range. *)
let range_of_bits known bits =
  let unk = lnot known in
  if unk >= 0 then Some (bits, bits lor unk) else None

(* Smart constructor: mutually reduces the two components. The
   arguments must describe a non-empty, consistent set. *)
let make ~lo ~hi ~known ~bits =
  let bits = bits land known in
  let step (lo, hi, known, bits) =
    let ik, ib = prefix_of_range lo hi in
    if (bits lxor ib) land known land ik <> 0 then
      (* caller fed inconsistent facts; trust the interval *)
      (lo, hi, ik, ib)
    else
      let k = known lor ik and b = bits lor ib in
      match range_of_bits k b with
      | Some (blo, bhi)
        when Stdlib.max lo blo <= Stdlib.min hi bhi ->
        (Stdlib.max lo blo, Stdlib.min hi bhi, k, b)
      | _ -> (lo, hi, k, b)
  in
  let lo, hi, known, bits = step (step (lo, hi, known, bits)) in
  if lo = hi then { lo; hi; known = -1; bits = lo }
  else { lo; hi; known; bits }

let top = { lo = min_i; hi = max_i; known = 0; bits = 0 }
let of_const n = { lo = n; hi = n; known = -1; bits = n }

let of_bounds a b =
  let lo = Stdlib.min a b and hi = Stdlib.max a b in
  make ~lo ~hi ~known:0 ~bits:0

let of_ty (ty : Hir.ty) =
  let w = Stdlib.max 1 ty.width in
  if w >= 62 then top
  else if ty.signed then of_bounds (-(1 lsl (w - 1))) ((1 lsl (w - 1)) - 1)
  else of_bounds 0 ((1 lsl w) - 1)

let join a b =
  let known = a.known land b.known land lnot (a.bits lxor b.bits) in
  make ~lo:(Stdlib.min a.lo b.lo) ~hi:(Stdlib.max a.hi b.hi) ~known
    ~bits:(a.bits land known)

let meet a b =
  let lo = Stdlib.max a.lo b.lo and hi = Stdlib.min a.hi b.hi in
  if lo > hi then None
  else if (a.bits lxor b.bits) land a.known land b.known <> 0 then None
  else Some (make ~lo ~hi ~known:(a.known lor b.known) ~bits:(a.bits lor b.bits))

let thresholds =
  [| min_i; -4294967296; -65536; -256; -2; -1; 0; 1; 2; 255; 256; 65535;
     65536; 4294967295; max_i |]

let widen_down v =
  let best = ref min_i in
  Array.iter (fun t -> if t <= v && t > !best then best := t) thresholds;
  !best

let widen_up v =
  let best = ref max_i in
  Array.iter (fun t -> if t >= v && t < !best then best := t) thresholds;
  !best

let widen a b =
  let lo = if b.lo < a.lo then widen_down b.lo else a.lo in
  let hi = if b.hi > a.hi then widen_up b.hi else a.hi in
  let known = a.known land b.known land lnot (a.bits lxor b.bits) in
  make ~lo ~hi ~known ~bits:(a.bits land known)

let equal a b =
  a.lo = b.lo && a.hi = b.hi && a.known = b.known && a.bits = b.bits

let contains t v = v >= t.lo && v <= t.hi && v land t.known = t.bits
let is_singleton t = if t.lo = t.hi then Some t.lo else None

let fits_ty ty t =
  let r = of_ty ty in
  t.lo >= r.lo && t.hi <= r.hi

let wrap_ty (ty : Hir.ty) t =
  if ty.width >= 62 then t (* Interp.wrap is the identity there *)
  else if fits_ty ty t then t
  else
    let w = Stdlib.max 1 ty.width in
    let m = 1 lsl w in
    let wrap v =
      let x = v land (m - 1) in
      if ty.signed && x >= m / 2 then x - m else x
    in
    (* wrapping preserves the low [w] bits verbatim *)
    let kl = t.known land (m - 1) in
    let bl = t.bits land kl in
    let span = match sub_opt t.hi t.lo with Some s -> s | None -> max_i in
    let wlo = wrap t.lo and whi = wrap t.hi in
    if span <= m - 1 && whi - wlo = span then
      (* the whole interval maps through a single wrap window *)
      make ~lo:wlo ~hi:whi ~known:kl ~bits:bl
    else
      let r = of_ty ty in
      make ~lo:r.lo ~hi:r.hi ~known:kl ~bits:bl

let min_width ~signed t =
  let rec go w =
    if w >= 63 then 63
    else
      let ok =
        if signed then t.lo >= -(1 lsl (w - 1)) && t.hi <= (1 lsl (w - 1)) - 1
        else t.lo >= 0 && t.hi <= (1 lsl w) - 1
      in
      if ok then w else go (w + 1)
  in
  go 1

(* ---- transfer functions ---- *)

(* Low bits of a result that are fully determined by the low bits of
   the operands (sound under native wrap: congruence mod 2^k). *)
let trailing_known k =
  let rec go i = if i >= 62 || k land (1 lsl i) = 0 then i else go (i + 1) in
  go 0

let trailing_bits op a b =
  let n = Stdlib.min (trailing_known a.known) (trailing_known b.known) in
  if n = 0 then (0, 0)
  else
    let mask = (1 lsl n) - 1 in
    let x = a.bits land mask and y = b.bits land mask in
    let v =
      match op with
      | `Add -> x + y
      | `Sub -> x - y
      | `Mul -> x * y
    in
    (mask, v land mask)

let arith op f a b =
  let known, bits = trailing_bits op a b in
  match (f a.lo b.lo, f a.lo b.hi, f a.hi b.lo, f a.hi b.hi) with
  | Some c1, Some c2, Some c3, Some c4 ->
    let lo = Stdlib.min (Stdlib.min c1 c2) (Stdlib.min c3 c4) in
    let hi = Stdlib.max (Stdlib.max c1 c2) (Stdlib.max c3 c4) in
    make ~lo ~hi ~known ~bits
  | _ ->
    (* a corner wraps natively: the value can land anywhere, but the
       low bits stay determined *)
    make ~lo:min_i ~hi:max_i ~known ~bits

(* Effective shift range: Interp masks the amount with [land 63], and
   OCaml leaves shifts by 63 unspecified, so anything not provably in
   [0, 62] gets no shift-range facts at all. *)
let eff_shift b =
  if b.lo >= 0 && b.hi <= 62 then Some (b.lo, b.hi) else None

let shl a b =
  match eff_shift b with
  | None -> top
  | Some (kl, kh) ->
    let bitinfo =
      if kl = kh then
        (* exact bit relocation: low kl bits become known zeros *)
        ((a.known lsl kl) lor ((1 lsl kl) - 1), (a.bits lsl kl) land lnot 0)
      else (0, 0)
    in
    let known, bits = bitinfo in
    (match (shl_opt a.lo kl, shl_opt a.lo kh, shl_opt a.hi kl, shl_opt a.hi kh)
     with
    | Some c1, Some c2, Some c3, Some c4 ->
      let lo = Stdlib.min (Stdlib.min c1 c2) (Stdlib.min c3 c4) in
      let hi = Stdlib.max (Stdlib.max c1 c2) (Stdlib.max c3 c4) in
      make ~lo ~hi ~known ~bits:(bits land known)
    | _ -> make ~lo:min_i ~hi:max_i ~known ~bits:(bits land known))

let shr a b =
  match eff_shift b with
  | None -> top
  | Some (kl, kh) ->
    let known, bits =
      if kl = kh then (a.known asr kl, a.bits asr kl) else (0, 0)
    in
    let c1 = a.lo asr kl and c2 = a.lo asr kh in
    let c3 = a.hi asr kl and c4 = a.hi asr kh in
    let lo = Stdlib.min (Stdlib.min c1 c2) (Stdlib.min c3 c4) in
    let hi = Stdlib.max (Stdlib.max c1 c2) (Stdlib.max c3 c4) in
    make ~lo ~hi ~known ~bits:(bits land known)

let band a b =
  (* result bit known when both known, or either is a known zero *)
  let known =
    (a.known land b.known) lor (a.known land lnot a.bits)
    lor (b.known land lnot b.bits)
  in
  let bits = a.bits land b.bits land known in
  let lo, hi =
    if a.lo >= 0 && b.lo >= 0 then (0, Stdlib.min a.hi b.hi)
    else if a.lo >= 0 then (0, a.hi)
    else if b.lo >= 0 then (0, b.hi)
    else
      (* x land y >= x + y + 1 when both negative; >= 0 otherwise *)
      let lo =
        match add_opt a.lo b.lo with Some s -> Stdlib.min 0 s | None -> min_i
      in
      (lo, Stdlib.max 0 (Stdlib.max a.hi b.hi))
  in
  make ~lo ~hi ~known ~bits

let bor a b =
  let known =
    (a.known land b.known) lor (a.known land a.bits) lor (b.known land b.bits)
  in
  let bits = (a.bits lor b.bits) land known in
  let lo =
    if a.lo >= 0 && b.lo >= 0 then Stdlib.max a.lo b.lo
    else Stdlib.min a.lo b.lo
  in
  let hi =
    if a.hi < 0 || b.hi < 0 then -1 (* a set sign bit survives lor *)
    else
      match add_opt (Stdlib.max 0 a.hi) (Stdlib.max 0 b.hi) with
      | Some s -> s
      | None -> max_i
  in
  make ~lo ~hi ~known ~bits

let bxor a b =
  let known = a.known land b.known in
  let bits = (a.bits lxor b.bits) land known in
  let lo, hi =
    if a.lo >= 0 && b.lo >= 0 then
      ( 0,
        match add_opt a.hi b.hi with
        | Some s -> s
        | None -> max_i )
    else (min_i, max_i)
  in
  make ~lo ~hi ~known ~bits

let bool_top = { lo = 0; hi = 1; known = lnot 1; bits = 0 }

let cmp op a b =
  let decided v = of_const (if v then 1 else 0) in
  match op with
  | `Eq -> (
    match (is_singleton a, is_singleton b) with
    | Some x, Some y -> decided (x = y)
    | _ -> if meet a b = None then decided false else bool_top)
  | `Ne -> (
    match (is_singleton a, is_singleton b) with
    | Some x, Some y -> decided (x <> y)
    | _ -> if meet a b = None then decided true else bool_top)
  | `Lt ->
    if a.hi < b.lo then decided true
    else if a.lo >= b.hi then decided false
    else bool_top
  | `Le ->
    if a.hi <= b.lo then decided true
    else if a.lo > b.hi then decided false
    else bool_top
  | `Gt ->
    if a.lo > b.hi then decided true
    else if a.hi <= b.lo then decided false
    else bool_top
  | `Ge ->
    if a.lo >= b.hi then decided true
    else if a.hi < b.lo then decided false
    else bool_top

let binop (op : Hir.binop) a b =
  match op with
  | Add -> arith `Add add_opt a b
  | Sub -> arith `Sub sub_opt a b
  | Mul -> arith `Mul mul_opt a b
  | Shl -> shl a b
  | Shr -> shr a b
  | Band -> band a b
  | Bor -> bor a b
  | Bxor -> bxor a b
  | Eq -> cmp `Eq a b
  | Ne -> cmp `Ne a b
  | Lt -> cmp `Lt a b
  | Le -> cmp `Le a b
  | Gt -> cmp `Gt a b
  | Ge -> cmp `Ge a b

let unop (op : Hir.unop) t =
  match op with
  | Neg -> arith `Sub sub_opt (of_const 0) t
  | Bnot ->
    (* lnot x = -x - 1: exact on intervals, bitwise complement on bits *)
    make ~lo:(lnot t.hi) ~hi:(lnot t.lo) ~known:t.known
      ~bits:(lnot t.bits land t.known)

(* drop a single endpoint value from an interval, if possible *)
let trim_ne t v =
  if t.lo = v && t.hi = v then None
  else if t.lo = v then Some (make ~lo:(v + 1) ~hi:t.hi ~known:t.known ~bits:t.bits)
  else if t.hi = v then Some (make ~lo:t.lo ~hi:(v - 1) ~known:t.known ~bits:t.bits)
  else Some t

let rec assume_cmp (op : Hir.binop) a b =
  match op with
  | Eq -> ( match meet a b with None -> None | Some m -> Some (m, m))
  | Ne -> (
    match (is_singleton a, is_singleton b) with
    | Some x, Some y -> if x <> y then Some (a, b) else None
    | Some x, None -> (
      match trim_ne b x with None -> None | Some b' -> Some (a, b'))
    | None, Some y -> (
      match trim_ne a y with None -> None | Some a' -> Some (a', b))
    | None, None -> Some (a, b))
  | Lt ->
    if b.hi = min_i then None
    else
      let ahi = Stdlib.min a.hi (b.hi - 1) in
      if a.lo > ahi then None
      else if a.lo = max_i then None
      else
        let blo = Stdlib.max b.lo (a.lo + 1) in
        if blo > b.hi then None
        else
          Some
            ( make ~lo:a.lo ~hi:ahi ~known:a.known ~bits:a.bits,
              make ~lo:blo ~hi:b.hi ~known:b.known ~bits:b.bits )
  | Le ->
    let ahi = Stdlib.min a.hi b.hi and blo = Stdlib.max b.lo a.lo in
    if a.lo > ahi || blo > b.hi then None
    else
      Some
        ( make ~lo:a.lo ~hi:ahi ~known:a.known ~bits:a.bits,
          make ~lo:blo ~hi:b.hi ~known:b.known ~bits:b.bits )
  | Gt -> (
    match assume_cmp Lt b a with
    | None -> None
    | Some (b', a') -> Some (a', b'))
  | Ge -> (
    match assume_cmp Le b a with
    | None -> None
    | Some (b', a') -> Some (a', b'))
  | _ -> Some (a, b)

let pp fmt t =
  match is_singleton t with
  | Some n -> Format.fprintf fmt "{%d}" n
  | None ->
    let b s v =
      if v = min_i then "-inf" else if v = max_i then "+inf" else s
    in
    Format.fprintf fmt "[%s, %s]"
      (b (string_of_int t.lo) t.lo)
      (b (string_of_int t.hi) t.hi)

let to_string t = Format.asprintf "%a" pp t
