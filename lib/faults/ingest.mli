(** Deterministic faults on the byte-ingest path.

    The carrier faults of {!Engine} damage data {e inside} the
    platform; this axis damages its {e arrival}: a codestream is cut
    into fixed-size chunks that reach the service one inter-chunk gap
    apart, and each chunk may independently be lost, duplicated,
    reordered within a bounded window, or held up by stall jitter
    that also delays everything behind it. Every choice draws from a
    seeded {!Rng} stream, so an identical [(seed, spec, data)] yields
    an identical arrival schedule — ingest campaigns replay bit for
    bit. *)

type profile = {
  loss : float;  (** per-chunk probability the chunk never arrives *)
  dup : float;  (** per-chunk probability a duplicate copy arrives later *)
  reorder : float;
      (** per-chunk probability of slipping behind later chunks *)
  window : int;  (** bound (in chunks) on how far a chunk can slip *)
  stall : float;
      (** per-chunk probability of a head-of-line stall in front of it *)
  stall_max_ps : int;  (** stall duration uniform in [1, max] ps *)
}

(** {1 Specs}

    A spec bundles the transport shape (chunk size and gap) with the
    fault profile. The string form is
    [chunk=BYTES,gap_us=US,loss=P,dup=P,reorder=P,window=N,stall=P,stall_us=US]
    with every key optional; unknown keys, malformed numbers and
    out-of-range values are rejected with a one-line message naming
    the offending value. *)

type spec = {
  chunk_bytes : int;  (** > 0; default 512 *)
  gap_ps : int;  (** inter-chunk arrival gap, > 0; default 100 us *)
  profile : profile;
}

val default_spec : spec
val parse_spec : string -> (spec, string) result

val spec_to_string : spec -> string
(** Canonical round-trippable form, embedded in serve reports. *)

(** {1 Schedules} *)

type chunk = {
  c_offset : int;  (** byte offset of this chunk within the stream *)
  c_bytes : string;
  c_arrival_ps : int;  (** absolute arrival instant *)
}

type delivery = {
  chunks : chunk list;  (** sorted by (arrival, offset) *)
  sent : int;  (** chunks the stream was cut into *)
  lost : int;
  duped : int;
  reordered : int;
  stall_ps : int;  (** total head-of-line stall injected *)
}

val schedule : seed:int -> spec -> start_ps:int -> string -> delivery
(** Cut [data] into [spec.chunk_bytes]-sized chunks arriving from
    [start_ps] one gap apart, then apply the fault profile. Pure:
    equal arguments give equal deliveries. *)
