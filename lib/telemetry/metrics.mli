(** Per-run resource metrics: counters, gauges, and log2 histograms.

    Keys are dotted strings naming the resource and the quantity
    ("lock.opb.grants.microblaze0", "channel.opb.words", ...). The
    instrumented layers pick the keys; {!Report} snapshots the result
    at the end of a run. *)

type exemplar = { ex_value : int; ex_id : int; ex_trace : string }
(** One remembered sample: its value plus the request id and trace id
    it came from, so a histogram tail links back to a concrete
    request's spans. *)

type dist = {
  mutable d_count : int;
  mutable d_sum : int;
  mutable d_min : int;
  mutable d_max : int;
  d_buckets : int array;
  mutable d_exemplars : exemplar option array;
      (** per bucket, allocated on first exemplar; [[||]] before *)
}

type t

val create : unit -> t

val incr : t -> ?by:int -> string -> unit
(** Bumps a monotonic counter (created at 0 on first use). *)

val counter_ref : t -> string -> int ref
(** The live cell behind a counter (created at 0 if absent) — lets a
    hot path pay the key lookup once and [incr] the ref per event. *)

val set : t -> string -> int -> unit
(** Sets a gauge (last write wins). *)

val observe : t -> ?exemplar:int * string -> string -> int -> unit
(** Adds one sample to a histogram: count/sum/min/max plus a log2
    bucket (bucket [i] holds values in [[2^(i-1), 2^i)]). With
    [~exemplar:(id, trace)] the bucket remembers the largest sample
    seen so far (first occurrence wins ties, so replays agree). *)

val counters : t -> (string * int) list
(** All counters, sorted by key. *)

val gauges : t -> (string * int) list
val dists : t -> (string * dist) list

val counter : t -> string -> int
(** Current value of a counter, 0 if never incremented. *)

val exemplars : dist -> (int * exemplar) list
(** Buckets that hold an exemplar, as [(bucket_index, exemplar)],
    ascending by bucket. *)

val bucket_index : int -> int
val bucket_bounds : int -> int * int
(** [bucket_bounds i] is the half-open value range of bucket [i]. *)
