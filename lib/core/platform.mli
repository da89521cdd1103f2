(** Target-platform descriptions.

    A platform names the architectural resources a VTA model maps
    onto and fixes their clocking. {!ml401} is the paper's board: a
    Xilinx ML401 with a Virtex-4 LX25, MicroBlaze processors, an OPB
    bus and DDR RAM, everything at 100 MHz.

    The simulated bus is not described here. The VTA models
    ([Models.Vta_models]) build it with {!Bus.create}: a 32-bit OPB at
    [ml401]'s [clock_hz] with 2 arbitration and 1 address cycle
    per burst and one cycle per word (the defaults), and 32-word
    bursts unless [Vta_models.run_custom ~bus_max_burst] asks for
    another length. *)

type memory_resource = {
  mem_name : string;
  kind : [ `Block_ram | `External_ddr ];
  size_words : int;
}

type t = {
  platform_name : string;
  fpga : string;
  clock_hz : int;
  processor_kind : string;  (** e.g. ["microblaze"] *)
  memories : memory_resource list;
}

val ml401 : t
(** The paper's target: ML401 board, Virtex-4 LX25, 100 MHz system
    clock, IBM OPB, multi-channel DDR controller. *)

val clock_period : t -> Sim.Sim_time.t
