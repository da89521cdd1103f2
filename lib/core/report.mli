(** Fixed-width text tables for experiment output. *)

val render : header:string list -> string list list -> string
(** Renders a table with a header row, a separator, and data rows,
    the first column left-aligned and the rest right-aligned. Rows
    shorter than the header are padded with empty cells. *)

val fmt_ms : float -> string
(** Milliseconds with one decimal, e.g. ["3243.1"]. *)

val fmt_factor : float -> string
(** Ratio with two decimals and a multiplication sign, e.g. ["4.52x"]. *)

val fmt_pct : float -> string
(** Percentage with one decimal, e.g. ["88.8%"]. *)
