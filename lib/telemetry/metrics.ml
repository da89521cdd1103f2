type exemplar = { ex_value : int; ex_id : int; ex_trace : string }

type dist = {
  mutable d_count : int;
  mutable d_sum : int;
  mutable d_min : int;
  mutable d_max : int;
  d_buckets : int array; (* log2 buckets: index = bit length of value *)
  mutable d_exemplars : exemplar option array; (* per bucket; lazy *)
}

let buckets = 63

let no_exemplars : exemplar option array = [||]

type t = {
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, int ref) Hashtbl.t;
  dists : (string, dist) Hashtbl.t;
}

let create () =
  {
    counters = Hashtbl.create 64;
    gauges = Hashtbl.create 16;
    dists = Hashtbl.create 32;
  }

let incr t ?(by = 1) key =
  match Hashtbl.find_opt t.counters key with
  | Some r -> r := !r + by
  | None -> Hashtbl.replace t.counters key (ref by)

(* The live cell behind a counter, for hot paths that bump the same
   key on every call (the kernel's per-process wakeup counter): one
   hashtable lookup to obtain the ref, plain [incr] afterwards. *)
let counter_ref t key =
  match Hashtbl.find_opt t.counters key with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.replace t.counters key r;
    r

let set t key v =
  match Hashtbl.find_opt t.gauges key with
  | Some r -> r := v
  | None -> Hashtbl.replace t.gauges key (ref v)

(* Bucket index: bit length of the (non-negative) value, so bucket i
   holds values in [2^(i-1), 2^i). 0 lands in bucket 0. *)
let bucket_index v =
  let rec bits n acc = if n = 0 then acc else bits (n lsr 1) (acc + 1) in
  Stdlib.min (bits (Stdlib.max v 0) 0) (buckets - 1)

let observe t ?exemplar key v =
  let d =
    match Hashtbl.find_opt t.dists key with
    | Some d -> d
    | None ->
      let d =
        {
          d_count = 0;
          d_sum = 0;
          d_min = max_int;
          d_max = min_int;
          d_buckets = Array.make buckets 0;
          d_exemplars = no_exemplars;
        }
      in
      Hashtbl.replace t.dists key d;
      d
  in
  d.d_count <- d.d_count + 1;
  d.d_sum <- d.d_sum + v;
  if v < d.d_min then d.d_min <- v;
  if v > d.d_max then d.d_max <- v;
  let i = bucket_index v in
  d.d_buckets.(i) <- d.d_buckets.(i) + 1;
  match exemplar with
  | None -> ()
  | Some (ex_id, ex_trace) -> (
    if d.d_exemplars == no_exemplars then
      d.d_exemplars <- Array.make buckets None;
    (* Keep the bucket's largest sample; the first occurrence wins a
       tie so a replayed run picks the same exemplar. *)
    match d.d_exemplars.(i) with
    | Some e when e.ex_value >= v -> ()
    | Some _ | None -> d.d_exemplars.(i) <- Some { ex_value = v; ex_id; ex_trace })

let exemplars d =
  if d.d_exemplars == no_exemplars then []
  else
    Array.to_seq d.d_exemplars
    |> Seq.mapi (fun i e -> (i, e))
    |> Seq.filter_map (fun (i, e) ->
           match e with Some e -> Some (i, e) | None -> None)
    |> List.of_seq

let sorted_bindings table value =
  Hashtbl.fold (fun key v acc -> (key, value v) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters t = sorted_bindings t.counters (fun r -> !r)
let gauges t = sorted_bindings t.gauges (fun r -> !r)
let dists t = sorted_bindings t.dists (fun d -> d)

let counter t key =
  match Hashtbl.find_opt t.counters key with Some r -> !r | None -> 0

let bucket_bounds i = if i = 0 then (0, 1) else (1 lsl (i - 1), 1 lsl i)
