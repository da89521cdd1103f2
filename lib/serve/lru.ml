(* A cell of the recency list: most recent at [head], least recent at
   [tail]. Links are cells rather than options, so relinking on a hit
   allocates nothing. *)
type ('k, 'v) cell =
  | Nil
  | Node of {
      hash : int;
      key : 'k;
      mutable value : 'v;
      mutable prev : ('k, 'v) cell;  (* towards the head *)
      mutable next : ('k, 'v) cell;  (* towards the tail *)
    }

(* The index is keyed by the stored hash, which is already a hash:
   bucket it as is. *)
module Index = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash h = h
end)

type ('k, 'v) t = {
  cap : int;
  hash : 'k -> int;
  index : ('k, 'v) cell list Index.t;
  mutable head : ('k, 'v) cell;
  mutable tail : ('k, 'v) cell;
  mutable size : int;
  mutable hits : int;
  mutable misses : int;
  mutable insertions : int;
  mutable evictions : int;
}

type stats = {
  hits : int;
  misses : int;
  insertions : int;
  evictions : int;
}

let create ?(hash = Hashtbl.hash) ~capacity () =
  if capacity < 1 then invalid_arg "Serve.Lru.create: capacity < 1";
  {
    cap = capacity;
    hash;
    index = Index.create 16;
    head = Nil;
    tail = Nil;
    size = 0;
    hits = 0;
    misses = 0;
    insertions = 0;
    evictions = 0;
  }

let length t = t.size

let unlink t cell =
  match cell with
  | Nil -> ()
  | Node n ->
    (match n.prev with Nil -> t.head <- n.next | Node p -> p.next <- n.next);
    (match n.next with Nil -> t.tail <- n.prev | Node q -> q.prev <- n.prev);
    n.prev <- Nil;
    n.next <- Nil

let push_front t cell =
  match cell with
  | Nil -> ()
  | Node n ->
    n.next <- t.head;
    (match t.head with Nil -> t.tail <- cell | Node h -> h.prev <- cell);
    t.head <- cell

let touch t cell =
  if t.head != cell then begin
    unlink t cell;
    push_front t cell
  end

(* Every cell in a bucket shares the hash; the full-key comparison is
   what makes collisions harmless. *)
let rec in_bucket key = function
  | [] -> Nil
  | (Node n as cell) :: _ when n.key = key -> cell
  | _ :: rest -> in_bucket key rest

let lookup t h key =
  match Index.find_opt t.index h with
  | None -> Nil
  | Some bucket -> in_bucket key bucket

let unindex t cell =
  match cell with
  | Nil -> ()
  | Node n -> (
    match Index.find_opt t.index n.hash with
    | None -> ()
    | Some bucket -> (
      match List.filter (fun c -> c != cell) bucket with
      | [] -> Index.remove t.index n.hash
      | rest -> Index.replace t.index n.hash rest))

let drop t cell =
  unlink t cell;
  unindex t cell;
  t.size <- t.size - 1

let find (t : (_, _) t) key =
  match lookup t (t.hash key) key with
  | Node n as cell ->
    t.hits <- t.hits + 1;
    touch t cell;
    Some n.value
  | Nil ->
    t.misses <- t.misses + 1;
    None

let add (t : (_, _) t) key value =
  t.insertions <- t.insertions + 1;
  let h = t.hash key in
  match lookup t h key with
  | Node n as cell ->
    n.value <- value;
    touch t cell
  | Nil ->
    if t.size >= t.cap then begin
      drop t t.tail;
      t.evictions <- t.evictions + 1
    end;
    let cell = Node { hash = h; key; value; prev = Nil; next = Nil } in
    let bucket = Option.value ~default:[] (Index.find_opt t.index h) in
    Index.replace t.index h (cell :: bucket);
    push_front t cell;
    t.size <- t.size + 1

let remove_where (t : (_, _) t) pred =
  let removed = ref 0 in
  let rec walk = function
    | Nil -> ()
    | Node n as cell ->
      let next = n.next in
      if pred n.key then begin
        drop t cell;
        incr removed
      end;
      walk next
  in
  walk t.head;
  !removed

let stats (t : (_, _) t) =
  {
    hits = t.hits;
    misses = t.misses;
    insertions = t.insertions;
    evictions = t.evictions;
  }

let hit_rate s =
  let lookups = s.hits + s.misses in
  if lookups = 0 then 0.0 else float_of_int s.hits /. float_of_int lookups
