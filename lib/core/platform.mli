(** Target-platform descriptions.

    A platform names the architectural resources a VTA model maps
    onto and fixes their clocking and bus parameters. {!ml401} is the
    paper's board: a Xilinx ML401 with a Virtex-4 LX25, MicroBlaze
    processors, an OPB bus and DDR RAM, everything at 100 MHz. *)

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
  bus_kind : string;  (** e.g. ["opb"] *)
  bus_data_width : int;
  bus_max_burst : int;
  memories : memory_resource list;
}

val ml401 : t
(** The paper's target: ML401 board, Virtex-4 LX25, 100 MHz system
    clock, IBM OPB, multi-channel DDR controller. *)

val clock_period : t -> Sim.Sim_time.t
