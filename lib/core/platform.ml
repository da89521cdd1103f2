type memory_resource = {
  mem_name : string;
  kind : [ `Block_ram | `External_ddr ];
  size_words : int;
}

type t = {
  platform_name : string;
  fpga : string;
  clock_hz : int;
  processor_kind : string;
  bus_kind : string;
  bus_data_width : int;
  bus_max_burst : int;
  memories : memory_resource list;
}

let make ~name ~fpga ~clock_hz ?(processor_kind = "microblaze")
    ?(bus_kind = "opb") ?(bus_data_width = 32) ?(bus_max_burst = 16)
    ?(memories = []) () =
  if clock_hz <= 0 then invalid_arg "Platform.make: clock_hz";
  {
    platform_name = name;
    fpga;
    clock_hz;
    processor_kind;
    bus_kind;
    bus_data_width;
    bus_max_burst;
    memories;
  }

let ml401 =
  make ~name:"ml401" ~fpga:"xc4vlx25" ~clock_hz:100_000_000
    ~memories:
      [
        { mem_name = "ddr_ram"; kind = `External_ddr; size_words = 16_777_216 };
        { mem_name = "bram0"; kind = `Block_ram; size_words = 65_536 };
      ]
    ()

let clock_period t = Sim.Sim_time.period ~hz:t.clock_hz
