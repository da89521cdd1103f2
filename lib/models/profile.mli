(** Back-annotated execution-time profile of the JPEG 2000 decoder.

    OSSS annotates behaviour with profiled execution times; lacking
    the paper's MicroBlaze testbed we back-annotate from the numbers
    the paper publishes: the arithmetic decoder takes ≈180 ms per
    tile in software, and Figure 1 gives each stage's share of the
    total (lossless: 88.8 / 3.2 / 5.5 / 0.7 / 1.8 %, lossy:
    78.6 / 4.2 / 12.4 / 1.2 / 3.6 % for decoder / IQ / IDWT / ICT /
    DC shift). All times are per tile of the 16-tile, 3-component
    workload Table 1 uses. *)

type mode = Jpeg2000.Codestream.mode

type stage = Arith_decode | Iq | Idwt | Ict | Dc_shift

type stage_times = {
  t_decode : Sim.Sim_time.t;
  t_iq : Sim.Sim_time.t;
  t_idwt : Sim.Sim_time.t;
  t_ict : Sim.Sim_time.t;
  t_dc_shift : Sim.Sim_time.t;
}

val tiles : int
(** 16, as in Table 1. *)

val components : int
(** 3, as in Table 1. *)

val clock_hz : int
(** [Osss.Platform.ml401]'s clock, 100 MHz: both MicroBlaze and OPB
    on the ML401. *)

val sw : mode -> stage_times
(** Per-tile software execution times on the target processor
    (workload means). *)

val sw_decode_time : mode -> tile:int -> Sim.Sim_time.t
(** Arithmetic-decode EET of one specific tile. Tiles compress
    differently, so decode times vary deterministically around the
    180 ms mean (±15 %); the 16-tile total equals
    [16 * (sw mode).t_decode]. *)

val shares : mode -> (stage * float) list
(** Figure 1's percentages. *)

val stage_name : stage -> string

val hw : mode -> stage_times
(** {!sw} with IQ and IDWT accelerated 60× (lossless) / 80× (lossy),
    calibrated so that the refined HW IDWT keeps the paper's 12×/16×
    advantage (decode/ICT/DC unchanged — they stay in software). *)

val nominal_tile_words : mode -> int
(** Bus words of one full-resolution tile (all components) — the
    serialised payload a VTA channel carries per tile transfer. The
    lossy path moves twice as many words because its coefficients are
    doubles. *)

val so_grant_overhead : clients:int -> Sim.Sim_time.t
(** Scheduling overhead a {e software} client pays per Shared-Object
    access on the Application Layer; grows quadratically with the
    object's client count. This is the "increased working load and
    arbitration overhead of the HW/SW SO with seven clients" that
    makes version 5 slightly slower than version 4. After VTA
    refinement the arbitration is part of the physical channel model
    and this abstract annotation disappears. *)

val idwt_deadline : mode -> Sim.Sim_time.t
(** Per-tile deadline on the IDWT service interval checked with
    {!Osss.Eet.ret_check} in every model: twice the software IDWT
    time, so every clean run holds it with 100 % margin and misses
    only appear under fault injection. *)
