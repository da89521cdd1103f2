(** VHDL code generation from the extracted FSM.

    Emits the FOSSY house style: one entity with clock/reset and the
    module's data ports, one clocked process holding every variable
    (all registered), and a single [case] over an enumerated state
    type — "all functions and procedures inlined into a single
    explicit state machine", identifiers preserved. *)

val run : Fsm.t -> Rtl.Vhdl.design
