(** Explicit memories for the VTA layer.

    The paper's "explicit memory insertion" maps large Shared-Object
    arrays onto block RAMs instead of letting synthesis turn them
    into FPGA registers. A [t] combines word storage with the access
    timing of its implementation:

    - {!register_file}: combinational access, zero latency — what an
      un-refined [osss_array] costs in simulation (and what explodes
      the slice count in synthesis);
    - {!xilinx_block_ram}: one word per clock cycle with a pipeline
      read latency — the [xilinx_block_ram<osss_array<...>,32,16>]
      wrapper of the paper. *)

type t

val register_file : Sim.Kernel.t -> name:string -> size_words:int -> t

val xilinx_block_ram :
  Sim.Kernel.t ->
  name:string ->
  data_width:int ->
  addr_width:int ->
  clock_hz:int ->
  ?read_latency_cycles:int ->
  unit ->
  t
(** Capacity is [2^addr_width] words. [read_latency_cycles] defaults
    to 1 (synchronous BRAM read). [data_width] above 32 is rejected —
    the model stores 32-bit words, like the OSSS serialisation
    layer. *)

(** {1 Timed access (process context)} *)

val read : t -> int -> int32
val write : t -> int -> int32 -> unit
val read_burst : t -> addr:int -> len:int -> int32 array
val write_burst : t -> addr:int -> int32 array -> unit

(** {1 Timing model} *)

val access_time : t -> words:int -> Sim.Sim_time.t
(** Time for a burst of [words] sequential accesses, without
    performing them; used to compose EETs for computations whose data
    lives in this memory. *)
