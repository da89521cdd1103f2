type key = { digest : int64; length : int; tile : int; discard : int }

type t = (key, Jpeg2000.Tile.t) Lru.t

(* FNV-1a, 64-bit. *)
let digest s =
  let offset_basis = 0xcbf29ce484222325L in
  let prime = 0x100000001b3L in
  let h = ref offset_basis in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h prime)
    s;
  !h

let create ~capacity = Lru.create ~capacity ()
let find = Lru.find
let add = Lru.add
let stats = Lru.stats
