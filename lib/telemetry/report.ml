type dist = {
  count : int;
  sum : int;
  min : int;
  max : int;
  buckets : (int * int) list; (* bucket lower bound, sample count *)
  exemplars : (int * Metrics.exemplar) list; (* bucket lower bound *)
}

type t = {
  counters : (string * int) list;
  gauges : (string * int) list;
  dists : (string * dist) list;
}

let empty = { counters = []; gauges = []; dists = [] }

let of_metrics m =
  let dist_of (d : Metrics.dist) =
    let buckets = ref [] in
    Array.iteri
      (fun i n ->
        if n > 0 then buckets := (fst (Metrics.bucket_bounds i), n) :: !buckets)
      d.Metrics.d_buckets;
    {
      count = d.Metrics.d_count;
      sum = d.Metrics.d_sum;
      min = (if d.Metrics.d_count = 0 then 0 else d.Metrics.d_min);
      max = (if d.Metrics.d_count = 0 then 0 else d.Metrics.d_max);
      buckets = List.rev !buckets;
      exemplars =
        List.map
          (fun (i, e) -> (fst (Metrics.bucket_bounds i), e))
          (Metrics.exemplars d);
    }
  in
  {
    counters = Metrics.counters m;
    gauges = Metrics.gauges m;
    dists = List.map (fun (k, d) -> (k, dist_of d)) (Metrics.dists m);
  }

let counter t key =
  match List.assoc_opt key t.counters with Some v -> v | None -> 0

let gauge t key = List.assoc_opt key t.gauges
let dist t key = List.assoc_opt key t.dists

let counter_sum t ~prefix =
  List.fold_left
    (fun acc (key, v) ->
      if String.starts_with ~prefix key then acc + v else acc)
    0 t.counters

let dist_sum t key = match dist t key with Some d -> d.sum | None -> 0

(* Lower bound of the bucket holding the q-th quantile sample, by
   cumulative count over the (sorted, non-empty) bucket list. *)
let quantile_bucket d q =
  if d.count = 0 then None
  else
    let rank =
      Stdlib.max 1 (int_of_float (Float.round (q *. float_of_int d.count)))
    in
    let rec find seen = function
      | [] -> None
      | (lo, n) :: rest ->
        if seen + n >= rank then Some lo else find (seen + n) rest
    in
    find 0 d.buckets

(* The exemplar for the quantile bucket; when that exact bucket never
   captured one, fall back to the nearest populated bucket below, then
   above — deterministic either way. *)
let quantile_exemplar d q =
  match quantile_bucket d q with
  | None -> None
  | Some lo -> (
    match List.assoc_opt lo d.exemplars with
    | Some e -> Some e
    | None ->
      let below, above =
        List.partition (fun (b, _) -> b < lo) d.exemplars
      in
      (match (List.rev below, above) with
      | (_, e) :: _, _ -> Some e
      | [], (_, e) :: _ -> Some e
      | [], [] -> None))

let dist_to_json d =
  Json.Obj
    ([
      ("count", Json.Int d.count);
      ("sum", Json.Int d.sum);
      ("min", Json.Int d.min);
      ("max", Json.Int d.max);
      ( "mean",
        if d.count = 0 then Json.Null
        else Json.Float (float_of_int d.sum /. float_of_int d.count) );
      ( "buckets",
        Json.List
          (List.map
             (fun (lo, n) -> Json.List [ Json.Int lo; Json.Int n ])
             d.buckets) );
    ]
    @
    if d.exemplars = [] then []
    else
      [
        ( "exemplars",
          Json.List
            (List.map
               (fun (lo, e) ->
                 Json.Obj
                   [
                     ("bucket", Json.Int lo);
                     ("value", Json.Int e.Metrics.ex_value);
                     ("id", Json.Int e.Metrics.ex_id);
                     ("trace", Json.Str e.Metrics.ex_trace);
                   ])
               d.exemplars) );
      ])

let to_json t =
  let fields f xs = Json.Obj (List.map (fun (k, v) -> (k, f v)) xs) in
  Json.Obj
    [
      ("counters", fields (fun v -> Json.Int v) t.counters);
      ("gauges", fields (fun v -> Json.Int v) t.gauges);
      ("dists", fields dist_to_json t.dists);
    ]
