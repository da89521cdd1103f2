(** VHDL testbench generation.

    For a synthesised core, FOSSY emits a self-checking testbench
    skeleton: clock and reset generation, a stimulus process driving
    the input ports from constant arrays (one value per clock, in the
    order the behavioural model consumes them), and a monitor that
    logs every change of the output ports next to the reference
    output stream computed by executing the behavioural model with
    {!Interp}. The reference stream is embedded as a VHDL constant so
    an RTL simulation can be diffed against the high-level model. *)

val generate_for_module :
  Hir.module_def ->
  stimulus:Interp.stimulus ->
  ?max_outputs:int ->
  unit ->
  (string, string list) result
(** Convenience driver: validate → inline → FSM → run the interpreter
    for the reference trace → generate. *)
