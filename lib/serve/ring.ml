(* (point, replica) pairs sorted by point; ties (astronomically
   unlikely but cheap to handle) break on replica id so the ring is a
   total order and routing is deterministic. *)
type t = { vn : int; points : (int * int) array }

(* Ring coordinates live in [0, max_int]: the high bit is masked off
   so plain int compares agree with the unsigned order of the hash. *)
let mask h = Int64.to_int h land max_int

let point ~replica ~vnode =
  mask (Faults.Rng.hash64 (Int64.of_int (replica + 1)) (Int64.of_int (vnode + 1)))

let key_point digest = mask (Faults.Rng.mix64 digest)

let of_members vn members =
  let points =
    List.concat_map
      (fun r -> List.init vn (fun v -> (point ~replica:r ~vnode:v, r)))
      members
  in
  let arr = Array.of_list points in
  Array.sort compare arr;
  { vn; points = arr }

let create ?(vnodes = 16) members =
  if vnodes < 1 then invalid_arg "Fleet.Ring.create: vnodes < 1";
  of_members vnodes (List.sort_uniq Int.compare members)

let members t =
  List.sort_uniq Int.compare (Array.to_list (Array.map snd t.points))

let is_empty t = Array.length t.points = 0
let add t r = of_members t.vn (List.sort_uniq Int.compare (r :: members t))
let remove t r = of_members t.vn (List.filter (( <> ) r) (members t))

(* First point at or after the key's ring coordinate, wrapping past
   the top — binary search for the lower bound. *)
let first_at_or_after t p =
  let n = Array.length t.points in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if fst t.points.(mid) < p then lo := mid + 1 else hi := mid
  done;
  if !lo = n then 0 else !lo

let owner t digest =
  if is_empty t then None
  else Some (snd t.points.(first_at_or_after t (key_point digest)))

let successors t digest =
  if is_empty t then []
  else begin
    let n = Array.length t.points in
    let start = first_at_or_after t (key_point digest) in
    let seen = Hashtbl.create 8 in
    let out = ref [] in
    for k = 0 to n - 1 do
      let r = snd t.points.((start + k) mod n) in
      if not (Hashtbl.mem seen r) then begin
        Hashtbl.add seen r ();
        out := r :: !out
      end
    done;
    List.rev !out
  end
