(** Deterministic hierarchical profiler: folds the span stream into a
    cost tree.

    Every [Event.Complete] span lands in the tree of its track; nesting
    is recovered from the virtual-time intervals themselves (a span
    nests under the innermost span that fully contains it), and
    same-name siblings under one parent merge into a single node. All
    aggregates are integer picoseconds of {e simulated} time, so two
    runs with the same seed produce byte-identical trees regardless of
    [--jobs] or host load — per-domain work is attributed wherever its
    span was emitted (the coordinating domain), merged deterministically
    by track name. Wall-clock measurements never enter the tree.

    On every node [total_ps = self_ps + Σ children total_ps] holds by
    construction ({!invariant} re-checks it; the qcheck suite leans on
    this). *)

type node = {
  name : string;
  self_ps : int;  (** time in this node not covered by its children *)
  total_ps : int;
  count : int;  (** number of merged span instances (0 for roots) *)
  children : node list;  (** sorted by name *)
}

type t = { roots : node list  (** one per track, sorted by track name *) }

val of_events : Event.t list -> t
(** Builds the cost tree. Non-span events are ignored; partially
    overlapping siblings (malformed input) degrade to siblinghood, in
    which case a parent's [self_ps] may go negative — the invariant
    still holds exactly. *)

val add_synthetic : t -> track:string -> (string list * int * int) list -> t
(** [add_synthetic t ~track leaves] grafts a synthetic root built from
    [(path, self_ps, count)] leaves — for cost dimensions that exist as
    deterministic counters rather than spans (T1 code-block classes,
    pool phases). Replaces any existing root of that name. *)

val tracks : t -> string list
val total_ps : t -> int

val find : t -> string -> node option
(** Looks up a [";"]-separated path, root (track) name first:
    ["serve.exec;request;entropy"]. *)

val fold : ('a -> string -> node -> 'a) -> 'a -> t -> 'a
(** Pre-order over every node; the callback receives the full
    [";"]-separated path. *)

val top_self : ?n:int -> t -> (string * int) list
(** The [n] (default 3) largest positive self-times, as
    [(path, self_ps)], self-time descending then path ascending. *)

val invariant : t -> bool
(** [total = self + Σ children] on every node. *)

val collapsed : t -> string
(** Collapsed-stack (flamegraph) text: one ["a;b;c <self_ps>"] line per
    node with positive self-time, sorted, newline-terminated — ready
    for [flamegraph.pl] and stable under byte comparison. *)

val to_json : t -> Json.t
