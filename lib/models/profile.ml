type mode = Jpeg2000.Codestream.mode

type stage = Arith_decode | Iq | Idwt | Ict | Dc_shift

type stage_times = {
  t_decode : Sim.Sim_time.t;
  t_iq : Sim.Sim_time.t;
  t_idwt : Sim.Sim_time.t;
  t_ict : Sim.Sim_time.t;
  t_dc_shift : Sim.Sim_time.t;
}

let tiles = 16
let components = 3
let clock_hz = 100_000_000

(* Figure 1 of the paper. *)
let shares mode =
  match mode with
  | Jpeg2000.Codestream.Lossless ->
    [ (Arith_decode, 88.8); (Iq, 3.2); (Idwt, 5.5); (Ict, 0.7); (Dc_shift, 1.8) ]
  | Jpeg2000.Codestream.Lossy ->
    [ (Arith_decode, 78.6); (Iq, 4.2); (Idwt, 12.4); (Ict, 1.2); (Dc_shift, 3.6) ]

let stage_name = function
  | Arith_decode -> "arith-decode"
  | Iq -> "IQ"
  | Idwt -> "IDWT"
  | Ict -> "ICT"
  | Dc_shift -> "DC-shift"

(* The decoder stage is pinned at the paper's 180 ms/tile; the other
   stages follow from the Figure 1 shares. *)
let decode_ms = 180.0

let share_of mode stage = List.assoc stage (shares mode)

let stage_ms mode stage =
  decode_ms *. share_of mode stage /. share_of mode Arith_decode

let sw mode =
  let t stage = Sim.Sim_time.of_ms_float (stage_ms mode stage) in
  {
    t_decode = t Arith_decode;
    t_iq = t Iq;
    t_idwt = t Idwt;
    t_ict = t Ict;
    t_dc_shift = t Dc_shift;
  }

(* Deterministic per-tile spread of the decode time (±15 % — tiles
   compress differently). The table is a permutation of 0..15, so
   the workload total is exactly 16 x 180 ms, and every aligned
   4-tile stripe sums to the mean, so the four decoder tasks of
   versions 4/5/7 carry equal loads (as the static image partitioning
   of the case-study intends) while hitting the Shared Object at
   different times. *)
let decode_spread = [| 0; 15; 7; 8; 12; 3; 11; 4; 14; 1; 6; 9; 5; 10; 2; 13 |]

let sw_decode_time mode ~tile =
  let s = decode_spread.(tile mod tiles) in
  let factor = 0.85 +. (0.3 *. float_of_int s /. float_of_int (tiles - 1)) in
  Osss.Eet.scaled factor (sw mode).t_decode

(* Calibration: the paper reports HW IDWT 12x (lossless) / 16x
   (lossy) faster than SW even after VTA refinement, and refinement
   costs up to a factor 8 — which pins the Application-Layer
   acceleration at roughly 60x / 80x. *)
let hw_acceleration = function
  | Jpeg2000.Codestream.Lossless -> 60.0
  | Jpeg2000.Codestream.Lossy -> 80.0

let hw mode =
  let s = sw mode in
  let accel = 1.0 /. hw_acceleration mode in
  {
    s with
    t_iq = Osss.Eet.scaled accel s.t_iq;
    t_idwt = Osss.Eet.scaled accel s.t_idwt;
  }

(* One full-resolution tile: 128x128 luminance plus two half-size
   chroma components; one 32-bit word per reversible coefficient, two
   per irreversible (double-precision) coefficient. *)
let nominal_tile_words = function
  | Jpeg2000.Codestream.Lossless -> (128 * 128) + (2 * 64 * 64)
  | Jpeg2000.Codestream.Lossy -> 2 * ((128 * 128) + (2 * 64 * 64))

(* Per-access scheduling cost the OSSS run-time charges a software
   client of a Shared Object. Request-queue and guard management grow
   super-linearly with the client count (every access re-evaluates
   the other clients' pending guards), modelled quadratically:
   900 cycles x clients^2 at 100 MHz — 9 us for a private object,
   ~144 us at 4 clients, ~441 us at the 7-client object of version 5.
   Hardware blocks reach the object through dedicated ports and do
   not pay it. *)
let so_grant_overhead ~clients =
  Sim.Sim_time.cycles ~hz:clock_hz (900 * clients * clients)

(* Per-tile IDWT service deadline: twice the software IDWT time. The
   slowest clean IDWT path of any model version (version 1's software
   filter) meets it with 100 % margin, so a miss indicates genuine
   distress — fault-induced retransmissions or stall jitter. *)
let idwt_deadline mode = Osss.Eet.scaled 2.0 (sw mode).t_idwt
