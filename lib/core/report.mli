(** Fixed-width text tables for experiment output. *)

type align = Left | Right

val render : header:string list -> ?align:align list -> string list list -> string
(** Renders a table with a header row, a separator, and data rows.
    [align] defaults to left for the first column and right for the
    rest. Rows shorter than the header are padded with empty cells. *)

val fmt_ms : float -> string
(** Milliseconds with one decimal, e.g. ["3243.1"]. *)

val fmt_factor : float -> string
(** Ratio with two decimals and a multiplication sign, e.g. ["4.52x"]. *)

val fmt_pct : float -> string
(** Percentage with one decimal, e.g. ["88.8%"]. *)
