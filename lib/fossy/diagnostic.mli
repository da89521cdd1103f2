(** The one currency of the FOSSY lints and the analysis layer.

    Every pass — HIR dataflow, FSM structure, VHDL port discipline,
    OSSS concurrency — reports findings as values of {!t}, so the CLI,
    the synthesis gate and the tests consume a single shape. The
    rendering is one machine-readable line,
    [severity[CODE] path: message], stable enough to grep in CI. *)

type severity = Error | Warning | Info

type t = {
  code : string;  (** catalogue code, e.g. ["E010"] *)
  severity : severity;
  path : string;  (** location, e.g. ["idwt53/body/2.then.0"] *)
  message : string;
}

val error : code:string -> path:string -> ('a, Format.formatter, unit, t) format4 -> 'a
val warning : code:string -> path:string -> ('a, Format.formatter, unit, t) format4 -> 'a

val severity_label : severity -> string

val render : t -> string
(** One line: [severity[CODE] path: message]. *)

val is_error : t -> bool
val errors : t list -> t list

val compare : t -> t -> int
(** Orders by severity (errors first), then code, then path, then
    message — a total, byte-stable order so sorted lint output can be
    diffed in CI, and [List.sort_uniq] deduplicates exactly the
    findings that are identical. *)
