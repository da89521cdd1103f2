(** Explicit memories for the VTA layer.

    The paper's "explicit memory insertion" maps large Shared-Object
    arrays onto block RAMs instead of letting synthesis turn them
    into FPGA registers. A [t] is the access timing of such a block
    RAM, the [xilinx_block_ram<osss_array<...>,32,16>] wrapper of the
    paper: one synchronous read-latency cycle, then one word per clock
    cycle. The models only ask it for {!access_time}; the words
    themselves stay in the Shared Object's state. *)

type t

val xilinx_block_ram : data_width:int -> addr_width:int -> clock_hz:int -> t
(** A block RAM of [2^addr_width] words of [data_width] bits. A
    [data_width] outside 1..32 (the OSSS serialisation layer's 32-bit
    words), an [addr_width] outside 1..26 and a [clock_hz] below 1
    raise [Invalid_argument]. *)

val access_time : t -> words:int -> Sim.Sim_time.t
(** Time for a burst of [words] sequential accesses: zero for no
    words, otherwise [words + 1] cycles. Used to compose EETs for
    computations whose data lives in this memory. *)
