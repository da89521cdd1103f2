(** VHDL pretty printer.

    Emits synthesisable VHDL text from the {!Vhdl} AST — the final
    artefact of the FOSSY flow ("the resulting VHDL code remains
    human readable"). Also the yardstick for the paper's
    lines-of-code comparison between FOSSY output and the handcrafted
    reference models. *)

val emit : Vhdl.design -> string
(** Full design file: library clauses, entity, architecture. *)

val loc : Vhdl.design -> int
(** Non-blank lines of the emitted text — the LoC metric used in
    Section 4 of the paper. *)
