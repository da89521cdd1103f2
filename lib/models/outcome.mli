(** Result of one system-model run (one Table 1 cell pair). *)

type resilience = {
  deadline_misses : int;
      (** IDWT service intervals that overran {!Profile.idwt_deadline}
          (counted via [Osss.Eet.ret_check], never raising) *)
  crc_errors : int;  (** protected frames that arrived corrupted *)
  retries : int;  (** channel retransmissions performed *)
  giveups : int;  (** transfers abandoned after the retry budget *)
  retry_ms : float;  (** simulated time spent inside recovery *)
  concealed_blocks : int;  (** code blocks concealed by the decoder *)
  concealed_tiles : int;  (** tiles concealed whole *)
}

val clean : resilience
(** All-zero counters — what every run without fault injection must
    report. *)

val is_clean : resilience -> bool

type t = {
  version : string;  (** "1", "2", ..., "6a", "7b" *)
  mode : Profile.mode;
  decode_ms : float;  (** total decoding time for the 16-tile workload *)
  idwt_ms : float;  (** union of IDWT activity intervals *)
  idwt_calls : int;
  functional_ok : bool option;
      (** [Some true] when the payload decoded bit-identically to the
          reference decoder; [None] for timing-only runs *)
  resilience : resilience;
  telemetry : Telemetry.Report.t;
      (** Resource metrics collected during the run —
          {!Telemetry.Report.empty} when no sink was installed. *)
}

val speedup_vs : t -> t -> float
(** [speedup_vs baseline r]: how much faster [r] decodes. *)

val idwt_speedup_vs : t -> t -> float

val mode_string : Profile.mode -> string
val to_json : t -> Telemetry.Json.t

val pp : Format.formatter -> t -> unit
