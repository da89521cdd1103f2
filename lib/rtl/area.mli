(** Virtex-4 area model.

    Converts a {!Netlist.summary} into the figures the paper's
    Table 2 reports: slice flip-flops, 4-input LUTs, occupied slices,
    total equivalent gate count. The cost table is an explicit,
    documented approximation (one LUT4 per adder/subtractor/compare
    bit on the carry chain, LUT trees for multipliers, half a LUT per
    2:1-mux bit via the F5 muxes); absolute numbers are therefore
    indicative, but the FOSSY-vs-reference ratios — which is what the
    paper's evaluation is about — are driven by real structural
    differences (operator sharing across FSM states versus
    per-process duplication). *)

type sharing =
  | Shared  (** operators reused across FSM states (single-FSM FOSSY output) *)
  | Flat  (** every operator instantiated (multi-process reference style) *)

type report = {
  flip_flops : int;  (** slice flip-flops *)
  luts : int;  (** 4-input LUTs *)
  slices : int;  (** occupied slices *)
  gates : int;  (** total equivalent gate count *)
}

val estimate : sharing:sharing -> Netlist.summary -> report

val fits_lx25 : report -> bool
(** Whether the design fits a Virtex-4 LX25 (10 752 slices, 21 504
    LUTs/FFs). *)

val delta_pct : baseline:int -> int -> float
(** Signed percentage change relative to [baseline]; [0.] when both
    are zero, [infinity] when only the baseline is. *)

val regressions :
  tolerance_pct:float -> baseline:report -> report -> (string * float) list
(** The LUT/FF metrics of a report that grew beyond [tolerance_pct]
    percent over [baseline], as [(metric, delta_pct)] pairs — the
    area-regression gate run by the CLI [area --check] command and
    CI. Empty means the gate passes. *)
