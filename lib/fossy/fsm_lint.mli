(** Structural lints on the extracted FSM.

    - [W012] — unreachable state (constant-aware next-state edges);
    - [W013] — register never read by any action or branch condition
      (a flip-flop whose output goes nowhere). *)

val reachable : Fsm.t -> bool array
(** Constant-aware variant of {!Fsm.reachable_states}: a
    [Branch] on a constant condition only reaches the selected arm. *)

val run : Fsm.t -> Diagnostic.t list
