(** Per-request streaming delivery: a faulted chunk-arrival schedule
    ({!Faults.Ingest.schedule}) replayed against the framing units of
    the codestream.

    The analysis reassembles chunks in arrival order — duplicates
    dropped, out-of-order chunks parked until the contiguous prefix
    reaches them — and records the instant every tile segment lands:
    the first instant the contiguous prefix covers the segment's end
    offset. Those end offsets come from a per-stream {!layout}, read
    once by {!Jpeg2000.Codestream.parse_prefix}. The walk is
    prefix-closed (a qcheck property in the codec's test suite), so a
    segment is complete in a received prefix exactly when the prefix
    reaches its end offset in the whole string: the instants are those
    a parse of each received prefix would report. Because the
    schedule is deterministic too, the whole delivery is a pure
    function of (seed, spec, stream bytes): the scheduler can read
    tile readiness and stall outcomes off the precomputed timeline
    without simulating I/O events. *)

type layout
(** A codestream and the end offset of every tile segment
    {!Jpeg2000.Codestream.parse_prefix} reads from it, in stream
    order. *)

val layout : string -> layout
(** Read the preamble and tile segments of a codestream once. Never
    raises, whatever the bytes. *)

type t

val analyse_layout :
  seed:int -> Faults.Ingest.spec -> start_ps:int -> layout -> t
(** Cut the layout's stream into its faulted arrival schedule and
    replay it: a tile has landed once the contiguous prefix reaches
    its end offset. [start_ps] is the first chunk's nominal arrival
    instant. *)

val analyse : seed:int -> Faults.Ingest.spec -> start_ps:int -> string -> t
(** [analyse ~seed spec ~start_ps data] is
    [analyse_layout ~seed spec ~start_ps (layout data)]. *)

val delivery : t -> Faults.Ingest.delivery
(** The underlying schedule and its loss/dup/reorder/stall counters. *)

val tile_landed_ps : t -> int -> int
(** Instant tile [i] (stream order) was fully delivered, or [max_int]
    if the faulted delivery never completes it or the stream is
    damaged before it. *)

val complete_ps : t -> int
(** Instant the whole codestream had landed, or [max_int]. *)

val prefix_at : t -> int -> string
(** The contiguous byte prefix received by instant [t] — what a
    deadline-driven flush hands to {!Jpeg2000.Decoder.decode_robust}. *)

val bytes_received : t -> int
(** Total distinct payload bytes that ever arrive (duplicates and
    lost chunks excluded). *)
