(** Immutable snapshot of a run's {!Metrics}, carried by
    [Models.Outcome] next to the resilience counters and exported as
    JSON by the CLI. *)

type dist = {
  count : int;
  sum : int;
  min : int;
  max : int;
  buckets : (int * int) list;
      (** (bucket lower bound, sample count), non-empty buckets only *)
  exemplars : (int * Metrics.exemplar) list;
      (** (bucket lower bound, exemplar), buckets that captured one *)
}

type t = {
  counters : (string * int) list;
  gauges : (string * int) list;
  dists : (string * dist) list;
}

val empty : t
(** What a run without an installed sink reports. *)

val of_metrics : Metrics.t -> t

val counter : t -> string -> int
(** 0 when absent. *)

val gauge : t -> string -> int option
val dist : t -> string -> dist option

val counter_sum : t -> prefix:string -> int
(** Sum of every counter whose key starts with [prefix] — e.g. the
    total grant count over all masters of one lock. *)

val dist_sum : t -> string -> int
(** Sum of a histogram's samples, 0 when absent. *)

val quantile_bucket : dist -> float -> int option
(** Lower bound of the bucket holding the [q]-th quantile sample
    (cumulative count over the log2 buckets); [None] on an empty
    histogram. *)

val quantile_exemplar : dist -> float -> Metrics.exemplar option
(** The exemplar captured in [quantile_bucket]'s bucket — so
    [quantile_exemplar d 0.99] links a p99 line to a concrete request.
    Falls back to the nearest populated exemplar bucket below, then
    above. *)

val to_json : t -> Json.t
