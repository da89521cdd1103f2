type sharing = Shared | Flat

type report = { flip_flops : int; luts : int; slices : int; gates : int }

(* Folding n exclusive uses onto one operator instance removes the
   duplicates but inserts operand-selection muxes in front of the
   shared instance: roughly one LUT per operand bit per absorbed
   use-pair. *)
let sharing_mux_luts ~total ~shared =
  let removed =
    List.fold_left
      (fun acc (o : Netlist.op_count) ->
        let shared_count =
          List.fold_left
            (fun c (s : Netlist.op_count) ->
              if s.kind = o.kind && s.width = o.width then c + s.count else c)
            0 shared
        in
        acc + (Stdlib.max 0 (o.count - shared_count) * o.width))
      0 total
  in
  removed

(* Array-access multiplexers shared across exclusive FSM states:
   timing-driven replication keeps a small fraction (~4 %) of the
   folded access muxes separate, so a shared design pays the
   per-state maximum plus that residual. *)
let residual_fraction = 0.04

let residual_ports ~total ~shared =
  List.map
    (fun (p : Netlist.port_count) ->
      let all =
        List.fold_left
          (fun acc (t : Netlist.port_count) ->
            if t.depth = p.depth && t.pwidth = p.pwidth then acc + t.pcount
            else acc)
          0 total
      in
      let residual =
        int_of_float
          (Float.round (residual_fraction *. float_of_int (Stdlib.max 0 (all - p.pcount))))
      in
      { p with pcount = p.pcount + residual })
    shared

let estimate ~sharing (s : Netlist.summary) =
  let op_luts, port_luts =
    match sharing with
    | Flat ->
      ( Netlist.total_op_luts s.Netlist.ops_total,
        Netlist.read_port_luts s.Netlist.reads_total
        + Netlist.write_port_luts s.Netlist.writes_total )
    | Shared ->
      ( Netlist.total_op_luts s.Netlist.ops_shared
        + sharing_mux_luts ~total:s.Netlist.ops_total ~shared:s.Netlist.ops_shared,
        Netlist.read_port_luts
          (residual_ports ~total:s.Netlist.reads_total
             ~shared:s.Netlist.reads_shared)
        + Netlist.write_port_luts
            (residual_ports ~total:s.Netlist.writes_total
               ~shared:s.Netlist.writes_shared) )
  in
  let mux_luts = s.Netlist.mux2_bits / 2 in
  let fsm_luts = s.Netlist.state_count in
  let luts = op_luts + port_luts + mux_luts + fsm_luts in
  let state_bits =
    let rec bits v acc = if v <= 1 then acc else bits ((v + 1) / 2) (acc + 1) in
    bits (Stdlib.max 1 s.Netlist.state_count) 0
  in
  let flip_flops = s.Netlist.register_bits + state_bits in
  (* A Virtex-4 slice holds 2 LUT4 + 2 FF; typical packing ~85 %. *)
  let slices =
    int_of_float
      (Float.round
         (float_of_int (Stdlib.max ((luts + 1) / 2) ((flip_flops + 1) / 2))
         /. 0.85))
  in
  (* Xilinx gate equivalents: ~12 per LUT4, 8 per FF. *)
  let gates = (12 * luts) + (8 * flip_flops) in
  { flip_flops; luts; slices; gates }

let fits_lx25 r = r.slices <= 10_752 && r.luts <= 21_504 && r.flip_flops <= 21_504

let delta_pct ~baseline value =
  if baseline = 0 then if value = 0 then 0.0 else infinity
  else float_of_int (value - baseline) *. 100.0 /. float_of_int baseline

let regressions ~tolerance_pct ~baseline r =
  List.filter_map
    (fun (label, base, now) ->
      let d = delta_pct ~baseline:base now in
      if d > tolerance_pct then Some (label, d) else None)
    [
      ("flip_flops", baseline.flip_flops, r.flip_flops);
      ("luts", baseline.luts, r.luts);
    ]
