type t = { lock : Lock.t; clock_hz : int; max_burst_words : int }
type master = Lock.holder

let create kernel ~name ~clock_hz ?(max_burst_words = 16)
    ?(arbiter = Arbiter.create Arbiter.Fcfs) () =
  if clock_hz <= 0 then invalid_arg "Bus.create: clock_hz";
  if max_burst_words <= 0 then invalid_arg "Bus.create: max_burst_words";
  { lock = Lock.create kernel ~name ~arbiter; clock_hz; max_burst_words }

let name t = Lock.name t.lock
let kernel t = Lock.kernel t.lock
let clock_hz t = t.clock_hz

let attach_master t ~name = Lock.register t.lock ~name ()

(* The OPB's burst: 2 arbitration cycles, 1 address cycle and one
   cycle per 32-bit word. *)
let burst_cycles ~burst_words = 2 + 1 + burst_words

let burst_time t ~burst_words =
  Sim.Sim_time.cycles ~hz:t.clock_hz (burst_cycles ~burst_words)

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
      (full_bursts * burst_cycles ~burst_words:t.max_burst_words)
      + (if tail > 0 then burst_cycles ~burst_words:tail else 0)
    in
    Sim.Sim_time.cycles ~hz:t.clock_hz cycles
  end
