(** Minimal JSON document builder and reader.

    The repository has no JSON dependency; this covers what the
    telemetry exporters, the [--json] CLI outputs, the bench harness
    and the perf-regression gate need: construct a value, print it,
    and read a committed baseline back. Strings are escaped per
    RFC 8259; non-finite floats become [null] (JSON has no NaN or
    infinity literals). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string

val save : string -> t -> unit
(** [save path v] writes [v] followed by a newline to [path]. *)

(** {1 Parsing}

    Recursive-descent RFC 8259 reader. Numbers without a fraction or
    exponent parse as [Int], everything else as [Float]; [\uXXXX]
    escapes are encoded as UTF-8 bytes. *)

val parse : string -> (t, string) result
(** Parses one complete document; the error message carries the byte
    offset of the first problem. *)

val load : string -> (t, string) result
(** [load path] reads and parses the file (I/O errors become [Error]). *)

(** {1 Accessors} *)

val member : string -> t -> t option
(** First binding of a key in an [Obj]; [None] on anything else. *)

val to_float_opt : t -> float option
(** [Int] and [Float] both read as floats. *)

val to_int_opt : t -> int option
val to_string_opt : t -> string option
val to_list_opt : t -> t list option
