type 'a entry = { key : int; seq : int; value : 'a }

type 'a t = {
  mutable heap : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
}

(* A sentinel entry for vacated and never-used slots, so the heap
   array never keeps popped entries (and their closure payloads)
   alive. The value field is never read below [size], and the dummy
   itself is immutable and shared, so the [Obj.magic] cannot escape. *)
let dummy : Obj.t entry = { key = min_int; seq = min_int; value = Obj.repr () }
let dummy_entry () : 'a entry = Obj.magic dummy

let create () = { heap = [||]; size = 0; next_seq = 0 }

let length q = q.size

(* [before a b] implements the heap order: key first, then insertion
   sequence, so equal keys come out in FIFO order. *)
let before a b = a.key < b.key || (a.key = b.key && a.seq < b.seq)

let grow q =
  let capacity = Array.length q.heap in
  if q.size = capacity then begin
    let bigger = Array.make (Stdlib.max 8 (2 * capacity)) (dummy_entry ()) in
    Array.blit q.heap 0 bigger 0 q.size;
    q.heap <- bigger
  end

let rec sift_up q i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before q.heap.(i) q.heap.(parent) then begin
      let tmp = q.heap.(i) in
      q.heap.(i) <- q.heap.(parent);
      q.heap.(parent) <- tmp;
      sift_up q parent
    end
  end

let rec sift_down q i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = ref i in
  if left < q.size && before q.heap.(left) q.heap.(!smallest) then
    smallest := left;
  if right < q.size && before q.heap.(right) q.heap.(!smallest) then
    smallest := right;
  if !smallest <> i then begin
    let tmp = q.heap.(i) in
    q.heap.(i) <- q.heap.(!smallest);
    q.heap.(!smallest) <- tmp;
    sift_down q !smallest
  end

let push q ~key value =
  let entry = { key; seq = q.next_seq; value } in
  q.next_seq <- q.next_seq + 1;
  if Array.length q.heap = 0 then q.heap <- Array.make 8 (dummy_entry ());
  grow q;
  q.heap.(q.size) <- entry;
  q.size <- q.size + 1;
  sift_up q (q.size - 1)

let min_key q = if q.size = 0 then None else Some q.heap.(0).key

let pop q =
  if q.size = 0 then None
  else begin
    let top = q.heap.(0) in
    q.size <- q.size - 1;
    if q.size > 0 then begin
      q.heap.(0) <- q.heap.(q.size);
      sift_down q 0
    end;
    (* Clear the vacated slot: it would otherwise keep the moved (and
       eventually popped) entry live until a future push overwrites
       it. *)
    q.heap.(q.size) <- dummy_entry ();
    Some (top.key, top.value)
  end

let pop_le q ~key =
  if q.size = 0 || q.heap.(0).key > key then None
  else
    match pop q with
    | Some (_, v) -> Some v
    | None -> None
