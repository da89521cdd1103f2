type t = { clock_hz : int }

let xilinx_block_ram ~data_width ~addr_width ~clock_hz =
  if data_width <= 0 || data_width > 32 then
    invalid_arg "Memory.xilinx_block_ram: data_width";
  if addr_width <= 0 || addr_width > 26 then
    invalid_arg "Memory.xilinx_block_ram: addr_width";
  if clock_hz <= 0 then invalid_arg "Memory.xilinx_block_ram: clock_hz";
  { clock_hz }

(* One read-latency cycle, then one cycle per word. *)
let access_time t ~words =
  if words < 0 then invalid_arg "Memory.access_time: negative"
  else if words = 0 then Sim.Sim_time.zero
  else Sim.Sim_time.cycles ~hz:t.clock_hz (words + 1)
