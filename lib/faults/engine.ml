type rates = {
  channel_bit_flip : float;
  channel_word_drop : float;
  stall_probability : float;
  stall_max_cycles : int;
}

let no_faults =
  {
    channel_bit_flip = 0.0;
    channel_word_drop = 0.0;
    stall_probability = 0.0;
    stall_max_cycles = 0;
  }

let channel_only rate =
  { no_faults with channel_bit_flip = rate; channel_word_drop = rate /. 8.0 }

type counters = {
  mutable bit_flips : int;
  mutable word_drops : int;
  mutable stalls : int;
  mutable stall_cycles : int;
}

type t = { rates : rates; rng : Rng.t; counters : counters }

let check_rate name r =
  if not (Float.is_finite r) || r < 0.0 || r > 1.0 then
    invalid_arg (Printf.sprintf "Faults.Engine.create: %s out of [0,1]" name)

let create ~seed rates =
  check_rate "channel_bit_flip" rates.channel_bit_flip;
  check_rate "channel_word_drop" rates.channel_word_drop;
  check_rate "stall_probability" rates.stall_probability;
  if rates.stall_max_cycles < 0 then
    invalid_arg "Faults.Engine.create: stall_max_cycles";
  {
    rates;
    rng = Rng.create seed;
    counters = { bit_flips = 0; word_drops = 0; stalls = 0; stall_cycles = 0 };
  }

let counters t = t.counters

(* -- fault models ---------------------------------------------------- *)

let flip_bit words rng =
  let n = Array.length words in
  if n = 0 then words
  else begin
    let out = Array.copy words in
    let w = Rng.int rng n and b = Rng.int rng 32 in
    out.(w) <- Int32.logxor out.(w) (Int32.shift_left 1l b);
    out
  end

let drop_word words rng =
  let n = Array.length words in
  if n = 0 then words
  else begin
    let k = Rng.int rng n in
    Array.init (n - 1) (fun i -> if i < k then words.(i) else words.(i + 1))
  end

let channel_hook t ~link:_ words =
  let words =
    if Rng.float t.rng < t.rates.channel_bit_flip then begin
      t.counters.bit_flips <- t.counters.bit_flips + 1;
      flip_bit words t.rng
    end
    else words
  in
  if Rng.float t.rng < t.rates.channel_word_drop then begin
    t.counters.word_drops <- t.counters.word_drops + 1;
    drop_word words t.rng
  end
  else words

let frame_hook t ~link:_ ~words:_ =
  let p =
    Float.min 1.0 (t.rates.channel_bit_flip +. t.rates.channel_word_drop)
  in
  if Rng.float t.rng < p then begin
    t.counters.bit_flips <- t.counters.bit_flips + 1;
    true
  end
  else false

let stall_hook t ~proc:_ =
  if t.rates.stall_max_cycles > 0
     && Rng.float t.rng < t.rates.stall_probability
  then begin
    let cycles = 1 + Rng.int t.rng t.rates.stall_max_cycles in
    t.counters.stalls <- t.counters.stalls + 1;
    t.counters.stall_cycles <- t.counters.stall_cycles + cycles;
    cycles
  end
  else 0

(* -- installation ---------------------------------------------------- *)

let install t =
  let r = t.rates in
  if r.channel_bit_flip > 0.0 || r.channel_word_drop > 0.0 then begin
    Osss.Fault_hooks.set_channel (channel_hook t);
    Osss.Fault_hooks.set_frame (frame_hook t)
  end;
  if r.stall_probability > 0.0 && r.stall_max_cycles > 0 then
    Osss.Fault_hooks.set_stall (stall_hook t)

let with_engine t f =
  install t;
  Fun.protect ~finally:Osss.Fault_hooks.clear f

let pp_counters ppf c =
  Format.fprintf ppf "bit flips %d, word drops %d, stalls %d (%d cycles)" c.bit_flips
    c.word_drops c.stalls c.stall_cycles
