(** Reusable dataflow framework over the FOSSY HIR.

    Builds a control-flow graph from a statement list — one node per
    statement plus synthetic entry/exit — annotated with def/use sets,
    and solves forward/backward fixpoints over sets of names. The
    canned analyses (may-be-uninitialised, liveness, reachability) are
    what the {!Hir_lint} diagnostics are made of; the framework itself
    is generic so further passes can reuse it.

    Design notes:
    - edges are constant-aware: [If (Const 0, ...)] only flows into
      the else arm, [While (Const 1, ...)] never flows past the loop —
      this is what makes the unreachable-statement lint precise;
    - the process body gets an exit→entry back edge, because an
      SC_CTHREAD repeats forever: a value written at the bottom of the
      loop and read at the top is live;
    - subprogram calls are summarised by their transitive module-level
      def/use sets, so analyses stay intraprocedural but don't lie
      about side effects. *)

module Names : Set.S with type elt = string

type summary = {
  su_uses : Names.t;
  su_arr_uses : Names.t;
  su_defs : Names.t;
  su_arr_defs : Names.t;
}

val summaries : Hir.module_def -> string -> summary
(** [summaries m] computes (memoised, cycle-tolerant) transitive
    module-level def/use summaries for every subprogram of [m] and
    returns the lookup function. Unknown names yield the empty
    summary. *)

type node = {
  id : int;
  path : string;  (** e.g. ["idwt53/body/3/then/0"] *)
  stmt : Hir.stmt option;  (** [None] for synthetic entry/exit *)
  defs : Names.t;
  uses : Names.t;
  array_defs : Names.t;
  array_uses : Names.t;
  mutable succ : int list;
  mutable pred : int list;
}

type t = { nodes : node array; entry : int; exit_ : int }

val of_body : Hir.module_def -> t
(** CFG of the behavioural process, with the infinite-loop back
    edge. *)

val of_subprogram : Hir.module_def -> Hir.subprogram -> t

type solution = {
  before : Names.t array;  (** per node id: set before the node *)
  after : Names.t array;
}

val maybe_uninit : t -> at_entry:Names.t -> solution
(** A name is in [before.(id)] while some path from entry reaches the
    node without writing it. *)

val live : t -> at_exit:Names.t -> solution
(** Liveness; [after.(id)] is the live-out set. [at_exit] names are
    observable past the region. *)

val reachable : t -> bool array
(** Per node id, whether a (constant-aware) path from the entry
    reaches it. *)

val stmt_label : Hir.stmt -> string
(** Short human label ("assignment to x", "while", ...) for
    diagnostics. *)
