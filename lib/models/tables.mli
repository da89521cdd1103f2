(** Regeneration of the paper's figures and tables as printable text. *)

val figure1 : ?payload:bool -> unit -> string
(** Figure 1: per-stage share of the software-only decoding time,
    lossless and lossy, measured from the version-1 model. *)

val figure1_rows :
  ?payload:bool ->
  unit ->
  (Jpeg2000.Codestream.mode * (Profile.stage * float * float) list) list
(** The rows behind {!figure1}: per mode, each stage with the paper's
    share and the share measured from the version-1 model, in %. *)

val table1 : ?payload:bool -> unit -> string
(** Table 1: decoding time and IDWT time for the 16-tile, 3-component
    workload, versions 1–5 (Application Layer) and 6a–7b (VTA Layer),
    plus the derived speed-up factors the paper quotes in the text. *)

val table1_results :
  ?payload:bool -> unit -> Outcome.t list * Outcome.t list
(** The raw outcomes (lossless, lossy) behind {!table1}. *)

val table2 : unit -> string
(** Table 2: RTL synthesis results of the IDWT cores — FOSSY output
    vs hand-crafted reference — plus the lines-of-code comparison of
    Section 4. *)

type table2_row = {
  core : string;  (** "IDWT53" / "IDWT97" *)
  fossy_area : Rtl.Area.report;
  fossy_unopt_area : Rtl.Area.report;
      (** area of the straight inline → FSM flow, before the
          value-analysis optimiser *)
  fossy_mhz : float;
  fossy_vhdl_loc : int;
  systemc_loc : int;
  ref_area : Rtl.Area.report;
  ref_mhz : float;
  ref_vhdl_loc : int;
}

val table2_rows : unit -> table2_row list

val relations_report : ?payload:bool -> unit -> string
(** The paper's textual claims evaluated against the simulated
    results ({!Experiment.paper_relations}). *)
