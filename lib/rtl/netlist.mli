(** Operator-level resource extraction from a VHDL design.

    Walks a {!Vhdl.design} and tallies what an RTL synthesiser would
    have to build: register bits, arithmetic/compare/logic operator
    instances with their widths, register-array access ports
    (dynamically indexed reads need a full read multiplexer, writes a
    decoder — the dominant cost of arrays kept in registers, which is
    exactly why the paper inserts explicit block RAMs), multiplexer
    bits implied by if/case control flow, and the longest
    combinational chain.

    [case] alternatives of a clocked process are treated as FSM
    states: operators and array ports in different alternatives are
    mutually exclusive in time and thus candidates for resource
    sharing. That sharing is how the single-FSM FOSSY output can come
    out smaller (and, through the operand multiplexers it needs,
    slower) than a multi-process reference — the Table 2 effect. *)

type op_kind = Add | Sub | Mul | Compare | Bitwise | Shift

type op_count = { kind : op_kind; width : int; count : int }

type port_count = {
  depth : int;  (** array length *)
  pwidth : int;  (** element width *)
  pcount : int;  (** number of access sites *)
}

type summary = {
  register_bits : int;  (** bits of state: signals/variables in clocked processes *)
  array_bits : int;  (** part of [register_bits] due to array types *)
  state_count : int;  (** FSM states (max case alternatives in a clocked process) *)
  ops_total : op_count list;  (** every operator instance, no sharing *)
  ops_shared : op_count list;
      (** per kind/width: max concurrent across FSM states — the
          post-sharing instance count *)
  reads_total : port_count list;  (** dynamically-indexed array reads *)
  reads_shared : port_count list;
  writes_total : port_count list;
  writes_shared : port_count list;
  mux2_bits : int;  (** 2:1-mux bit equivalents from if/case routing *)
  critical_path_ns : float;  (** longest operator chain, before routing *)
  process_count : int;
}

val of_design : Vhdl.design -> summary

val total_op_luts : op_count list -> int
(** LUT4 cost of a set of operator instances (see {!Area} for the
    cost-table rationale). *)

val read_port_luts : port_count list -> int
(** LUT4 cost of register-array read multiplexers:
    [(depth - 1) * width / 2] per port (two 2:1-mux bits per LUT via
    the F5/F6 muxes). *)

val write_port_luts : port_count list -> int
(** Write-enable decoders: [depth / 2] LUTs per port. *)
