type t = {
  lock : Lock.t;
  clock_hz : int;
  data_width_bits : int;
  arbitration_cycles : int;
  address_cycles : int;
  cycles_per_word : int;
  max_burst_words : int;
}

type master = Lock.holder

let create kernel ~name ~clock_hz ?(data_width_bits = 32)
    ?(arbitration_cycles = 2) ?(address_cycles = 1) ?(cycles_per_word = 1)
    ?(max_burst_words = 16) ?(arbiter = Arbiter.create Arbiter.Fcfs) () =
  if clock_hz <= 0 then invalid_arg "Bus.create: clock_hz";
  if data_width_bits <> 32 && data_width_bits <> 64 then
    invalid_arg "Bus.create: data path must be 32 or 64 bits";
  if arbitration_cycles < 0 || address_cycles < 0 then
    invalid_arg "Bus.create: negative cycle count";
  if cycles_per_word <= 0 then invalid_arg "Bus.create: cycles_per_word";
  if max_burst_words <= 0 then invalid_arg "Bus.create: max_burst_words";
  {
    lock = Lock.create kernel ~name ~arbiter ();
    clock_hz;
    data_width_bits;
    arbitration_cycles;
    address_cycles;
    cycles_per_word;
    max_burst_words;
  }

let name t = Lock.name t.lock
let kernel t = Lock.kernel t.lock
let clock_hz t = t.clock_hz

let attach_master t ~name = Lock.register t.lock ~name ()

let beats t ~burst_words =
  let words_per_beat = t.data_width_bits / 32 in
  (burst_words + words_per_beat - 1) / words_per_beat

let burst_cycles t ~burst_words =
  t.arbitration_cycles + t.address_cycles
  + (beats t ~burst_words * t.cycles_per_word)

let burst_time t ~burst_words =
  Sim.Sim_time.cycles ~hz:t.clock_hz (burst_cycles t ~burst_words)

let transfer t master ~words =
  if words < 0 then invalid_arg "Bus.transfer: negative word count";
  if words > 0 then begin
    if Telemetry.Sink.enabled () then begin
      Telemetry.Sink.incr ("bus." ^ name t ^ ".transactions");
      Telemetry.Sink.incr ~by:words ("bus." ^ name t ^ ".words")
    end;
    let full = t.max_burst_words in
    Lock.grant_run t.lock master
      ~hold:(burst_time t ~burst_words:full)
      ~count:(words / full);
    let tail = words mod full in
    if tail > 0 then
      Lock.grant_run t.lock master ~hold:(burst_time t ~burst_words:tail) ~count:1
  end

let transfer_time_unloaded t ~words =
  if words < 0 then invalid_arg "Bus.transfer_time_unloaded: negative"
  else begin
    let full_bursts = words / t.max_burst_words in
    let tail = words mod t.max_burst_words in
    let cycles =
      (full_bursts * burst_cycles t ~burst_words:t.max_burst_words)
      + (if tail > 0 then burst_cycles t ~burst_words:tail else 0)
    in
    Sim.Sim_time.cycles ~hz:t.clock_hz cycles
  end

let opb kernel ?(clock_hz = 100_000_000) () =
  create kernel ~name:"opb" ~clock_hz ~data_width_bits:32 ~arbitration_cycles:2
    ~address_cycles:1 ~max_burst_words:16 ()

let plb kernel ?(clock_hz = 100_000_000) () =
  create kernel ~name:"plb" ~clock_hz ~data_width_bits:64 ~arbitration_cycles:2
    ~address_cycles:0 ~max_burst_words:32 ()
