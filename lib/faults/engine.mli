(** Seeded deterministic fault-injection campaigns.

    An engine bundles a set of fault {!rates}, a seeded {!Rng} stream
    and hit counters. {!with_engine} plugs its fault models into the
    {!Osss.Fault_hooks} points of the core carriers for one run;
    because the simulation kernel is deterministic and every
    probabilistic choice draws from the engine's stream, an identical
    seed replays an identical fault pattern — campaigns are
    reproducible experiments, not noise.

    Fault models (per the robustness refinement of the decoder
    platform):
    - {e channel bit flip} — one random bit of one serialised RMI
      frame inverted in flight;
    - {e channel word drop} — one word of a frame lost (shifts the
      tail, so the CRC as well as plain deserialisation notice);
    - {e processor stall jitter} — spurious extra stall cycles
      appended to an EET slice. *)

type rates = {
  channel_bit_flip : float;  (** per-frame-attempt probability *)
  channel_word_drop : float;  (** per-frame-attempt probability *)
  stall_probability : float;  (** per-EET-slice probability *)
  stall_max_cycles : int;  (** stall is uniform in [1, max] *)
}

val no_faults : rates

val channel_only : float -> rates
(** Campaign preset: bit flips at [rate], word drops at [rate/8]. *)

type counters = {
  mutable bit_flips : int;
  mutable word_drops : int;
  mutable stalls : int;
  mutable stall_cycles : int;
}

type t

val create : seed:int -> rates -> t
(** Raises [Invalid_argument] on rates outside [0,1] or a negative
    stall bound. *)

val counters : t -> counters

val with_engine : t -> (unit -> 'a) -> 'a
(** Installs the engine's models into {!Osss.Fault_hooks}, runs [f],
    then clears every fault hook — also on exceptions. Only the hook
    points with a non-zero rate are claimed. *)

val pp_counters : Format.formatter -> counters -> unit
