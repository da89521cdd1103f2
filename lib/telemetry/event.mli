(** Structured trace events.

    One event is a point or an interval on a named {e track} of the
    simulated timeline. Tracks play the role of threads in the Chrome
    trace-event model: one per simulated process or per exclusive
    resource (processor, bus, shared object, memory), so an exported
    trace reads like the platform's architecture diagram. *)

type arg =
  | Int of int
  | Float of float
  | Bool of bool
  | Str of string

type phase =
  | Complete of int
      (** a span that covered [duration] picoseconds from [ts_ps] *)
  | Instant  (** a point event (CRC error, retry, ...) *)
  | Counter of int
      (** a sampled time-series value (queue depth, cache fill);
          rendered as a Chrome counter lane ([ph:"C"]) *)

type t = {
  ts_ps : int;  (** simulated time of the event start, picoseconds *)
  track : string;
  name : string;
  cat : string;  (** category: "stage", "busy", "arbitration", ... *)
  phase : phase;
  args : (string * arg) list;
}

val duration_ps : t -> int
(** Duration of a [Complete] event, 0 for [Instant]. *)

val tracks : t list -> string list
(** Distinct track names, sorted. *)

val spans : ?track:string -> ?name:string -> ?cat:string -> t list -> t list
(** [Complete] events matching every given filter. *)

val union_ps : t list -> int
(** Length of the union of all [Complete] event intervals — overlap
    counted once, exactly like the models' interval meter. *)

val arg_to_json : arg -> Json.t
