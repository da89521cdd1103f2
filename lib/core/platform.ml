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
  memories : memory_resource list;
}

let ml401 =
  {
    platform_name = "ml401";
    fpga = "xc4vlx25";
    clock_hz = 100_000_000;
    processor_kind = "microblaze";
    memories =
      [
        { mem_name = "ddr_ram"; kind = `External_ddr; size_words = 16_777_216 };
        { mem_name = "bram0"; kind = `Block_ram; size_words = 65_536 };
      ];
  }

let clock_period t = Sim.Sim_time.period ~hz:t.clock_hz
