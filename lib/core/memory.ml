type timing =
  | Combinational
  | Clocked of { clock_hz : int; read_latency_cycles : int }

type t = {
  kernel : Sim.Kernel.t;
  name : string;
  storage : int32 array;
  timing : timing;
}

let register_file kernel ~name ~size_words =
  if size_words <= 0 then invalid_arg "Memory.register_file: size_words";
  {
    kernel;
    name;
    storage = Array.make size_words 0l;
    timing = Combinational;
  }

let xilinx_block_ram kernel ~name ~data_width ~addr_width ~clock_hz
    ?(read_latency_cycles = 1) () =
  if data_width <= 0 || data_width > 32 then
    invalid_arg "Memory.xilinx_block_ram: data_width";
  if addr_width <= 0 || addr_width > 26 then
    invalid_arg "Memory.xilinx_block_ram: addr_width";
  if clock_hz <= 0 then invalid_arg "Memory.xilinx_block_ram: clock_hz";
  {
    kernel;
    name;
    storage = Array.make (1 lsl addr_width) 0l;
    timing = Clocked { clock_hz; read_latency_cycles };
  }

let check_addr t addr =
  if addr < 0 || addr >= Array.length t.storage then
    invalid_arg (Printf.sprintf "Memory: %s address %d out of range" t.name addr)

let access_time t ~words =
  if words < 0 then invalid_arg "Memory.access_time: negative"
  else
    match t.timing with
    | Combinational -> Sim.Sim_time.zero
    | Clocked { clock_hz; read_latency_cycles } ->
      if words = 0 then Sim.Sim_time.zero
      else Sim.Sim_time.cycles ~hz:clock_hz (read_latency_cycles + words - 1 + 1)

let single_access_time t =
  match t.timing with
  | Combinational -> Sim.Sim_time.zero
  | Clocked { clock_hz; read_latency_cycles } ->
    Sim.Sim_time.cycles ~hz:clock_hz (read_latency_cycles + 1)

(* Fault-injection points: a read fault models a transient or
   stuck-at error on the output port (storage untouched), a write
   fault corrupts the stored cell itself. *)
let faulted_read t addr v =
  match Fault_hooks.memory_read () with
  | None -> v
  | Some f -> f ~mem:t.name ~addr v

let faulted_write t addr v =
  match Fault_hooks.memory_write () with
  | None -> v
  | Some f -> f ~mem:t.name ~addr v

let read t addr =
  check_addr t addr;
  Telemetry.Sink.incr ("memory." ^ t.name ^ ".reads");
  Eet.consume (single_access_time t);
  faulted_read t addr t.storage.(addr)

let write t addr v =
  check_addr t addr;
  Telemetry.Sink.incr ("memory." ^ t.name ^ ".writes");
  (match t.timing with
  | Combinational -> ()
  | Clocked { clock_hz; _ } -> Eet.consume (Sim.Sim_time.cycles ~hz:clock_hz 1));
  t.storage.(addr) <- faulted_write t addr v

let read_burst t ~addr ~len =
  if len < 0 then invalid_arg "Memory.read_burst: negative length";
  if len > 0 then begin
    check_addr t addr;
    check_addr t (addr + len - 1)
  end;
  let span_start =
    if Telemetry.Sink.enabled () && len > 0 then begin
      Telemetry.Sink.incr ~by:len ("memory." ^ t.name ^ ".reads");
      Some (Sim.Sim_time.to_ps (Sim.Kernel.now t.kernel))
    end
    else None
  in
  Eet.consume (access_time t ~words:len);
  (match span_start with
  | None -> ()
  | Some ts_ps ->
    let now = Sim.Sim_time.to_ps (Sim.Kernel.now t.kernel) in
    Telemetry.Span.complete ~ts_ps ~dur_ps:(now - ts_ps) ~cat:"memory"
      ~args:[ ("words", Telemetry.Event.Int len) ]
      ("read:" ^ t.name));
  let data = Array.sub t.storage addr len in
  (match Fault_hooks.memory_read () with
  | None -> ()
  | Some f ->
    Array.iteri (fun i v -> data.(i) <- f ~mem:t.name ~addr:(addr + i) v) data);
  data

let write_burst t ~addr data =
  let len = Array.length data in
  if len > 0 then begin
    check_addr t addr;
    check_addr t (addr + len - 1)
  end;
  let span_start =
    if Telemetry.Sink.enabled () && len > 0 then begin
      Telemetry.Sink.incr ~by:len ("memory." ^ t.name ^ ".writes");
      Some (Sim.Sim_time.to_ps (Sim.Kernel.now t.kernel))
    end
    else None
  in
  Eet.consume (access_time t ~words:len);
  (match span_start with
  | None -> ()
  | Some ts_ps ->
    let now = Sim.Sim_time.to_ps (Sim.Kernel.now t.kernel) in
    Telemetry.Span.complete ~ts_ps ~dur_ps:(now - ts_ps) ~cat:"memory"
      ~args:[ ("words", Telemetry.Event.Int len) ]
      ("write:" ^ t.name));
  match Fault_hooks.memory_write () with
  | None -> Array.blit data 0 t.storage addr len
  | Some f ->
    Array.iteri (fun i v -> t.storage.(addr + i) <- f ~mem:t.name ~addr:(addr + i) v) data
