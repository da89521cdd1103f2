(** Port-discipline and unused-logic lints on VHDL designs — both the
    FOSSY-generated ones and the hand-written Table 2 references.

    - [E010] — a process drives an [in] port;
    - [E011] — an [out] port is read back but nothing drives it;
    - [W015] — an [out] port is never driven;
    - [W017] — an architecture signal is declared but never used. *)

val run : Rtl.Vhdl.design -> Fossy.Diagnostic.t list
