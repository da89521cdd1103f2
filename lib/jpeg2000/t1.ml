(* Context numbering: 0-8 zero coding, 9-13 sign coding, 14-16
   magnitude refinement, 17 run-length, 18 uniform. *)
let ctx_rl = 17
let ctx_uni = 18
let num_contexts = 19

(* Initial context states, ISO Table D.7, packed as [Mq] holds them
   ([(index lsl 1) lor mps], MPS 0): zero-coding context 0 starts at
   index 4, run-length at 3, uniform at 46, the rest at 0. *)
let initial_contexts =
  Array.init num_contexts (fun i ->
      if i = 0 then 4 lsl 1
      else if i = ctx_rl then 3 lsl 1
      else if i = ctx_uni then 46 lsl 1
      else 0)

let fresh_contexts () = Array.copy initial_contexts
let reset_contexts cx = Array.blit initial_contexts 0 cx 0 num_contexts

(* -- MQ decoder (ISO/IEC 15444-1, C.3) ---------------------------------

   The decoder lives here, beside the passes that make nearly all its
   decisions, because the build passes [-opaque]: nothing inlines
   across modules, so a decision in [Mq] would be a real call per
   coded bit. Here [decide] and its RENORMD are [@inline] and compile
   into every pass. The registers sit in one record of immediate
   fields, which a block's passes reuse from segment to segment
   ([mq_start]). *)

type mq_decoder = {
  mutable data : string;
  mutable pos : int; (* index of the byte B currently in use *)
  mutable a : int;
  mutable c : int;
  mutable ct : int;
}

let byte_at d i = if i < String.length d.data then Char.code d.data.[i] else 0xFF

(* BYTEIN. *)
let bytein d =
  if byte_at d d.pos = 0xFF then begin
    if byte_at d (d.pos + 1) > 0x8F then begin
      (* Marker (or synthesised end): feed 1-bits forever. *)
      d.c <- d.c + 0xFF00;
      d.ct <- 8
    end
    else begin
      d.pos <- d.pos + 1;
      d.c <- d.c + (byte_at d d.pos lsl 9);
      d.ct <- 7
    end
  end
  else begin
    d.pos <- d.pos + 1;
    d.c <- d.c + (byte_at d d.pos lsl 8);
    d.ct <- 8
  end

(* INITDEC over a new codeword, in place. *)
let mq_start d data =
  d.data <- data;
  d.pos <- 0;
  d.c <- byte_at d 0 lsl 16;
  bytein d;
  d.c <- (d.c lsl 7) land 0xFFFFFFFF;
  d.ct <- d.ct - 7;
  d.a <- 0x8000

let mq_blank () = { data = ""; pos = 0; a = 0; c = 0; ct = 0 }

let mq_decoder data =
  let d = mq_blank () in
  mq_start d data;
  d

(* RENORMD, with A, C and CT in locals for the loop; BYTEIN reads and
   writes C and CT through the record. *)
let[@inline] renorm d =
  let a = ref d.a and c = ref d.c and ct = ref d.ct in
  while !a land 0x8000 = 0 do
    if !ct = 0 then begin
      d.c <- !c;
      bytein d;
      c := d.c;
      ct := d.ct
    end;
    a := (!a lsl 1) land 0xFFFF;
    c := (!c lsl 1) land 0xFFFFFFFF;
    decr ct
  done;
  d.a <- !a;
  d.c <- !c;
  d.ct <- !ct

(* DECODE: one decision in context [cx.(i)], whose packed state it
   advances through [Mq]'s tables. *)
let[@inline] decide d cx i =
  let st = cx.(i) in
  let q = Mq.qe.(st) in
  let a = d.a - q in
  if (d.c lsr 16) land 0xFFFF < q then begin
    (* LPS path (chigh < Qe): conditional exchange *)
    let bit =
      if a < q then begin
        cx.(i) <- Mq.after_mps.(st);
        st land 1
      end
      else begin
        cx.(i) <- Mq.after_lps.(st);
        (st land 1) lxor 1
      end
    in
    d.a <- q;
    renorm d;
    bit
  end
  else begin
    d.c <- d.c - (q lsl 16);
    d.a <- a;
    if a land 0x8000 <> 0 then st land 1
    else begin
      let bit =
        if a < q then begin
          cx.(i) <- Mq.after_lps.(st);
          (st land 1) lxor 1
        end
        else begin
          cx.(i) <- Mq.after_mps.(st);
          st land 1
        end
      in
      renorm d;
      bit
    end
  end

let mq_decode = decide

(* -- packed coefficient state ----------------------------------------

   The generic passes below (the encoder, and the [~lut:false]
   reference decoder) keep one flags word per coefficient: the
   coefficient's own state plus the significance of all eight
   neighbours and the sign of the four horizontal/vertical ones,
   maintained incrementally when a coefficient becomes significant.
   Context formation then reads one word and one LUT entry instead of
   paying eight bounds-checked probes per decision. The array is
   padded by one cell on every side so neighbour updates never branch
   on block edges. *)

let f_sig = 0x01 (* this coefficient is significant *)
let f_visited = 0x02 (* coded by an earlier pass of this bit-plane *)
let f_refined = 0x04 (* magnitude-refined at least once *)
let f_became = 0x08 (* became significant in the current bit-plane *)
let f_sign = 0x10 (* this coefficient is negative *)

(* Neighbour significance, bits 5-12: W E N S NW NE SW SE. *)
let nb_shift = 5
let f_nb_w = 1 lsl 5
let f_nb_e = 1 lsl 6
let f_nb_n = 1 lsl 7
let f_nb_s = 1 lsl 8
let f_nb_nw = 1 lsl 9
let f_nb_ne = 1 lsl 10
let f_nb_sw = 1 lsl 11
let f_nb_se = 1 lsl 12
let nb_mask = 0xFF lsl nb_shift

(* Sign of the significant horizontal/vertical neighbours, bits
   13-16: W E N S (only ever set together with the matching
   significance bit). *)
let sg_shift = 13
let f_sg_w = 1 lsl 13
let f_sg_e = 1 lsl 14
let f_sg_n = 1 lsl 15
let f_sg_s = 1 lsl 16

type blk = {
  w : int;
  h : int;
  stride : int; (* w + 2: one padding column on each side *)
  orientation : Subband.orientation;
  lut : bool; (* false: reference per-probe context formation *)
  flags : int array; (* (w + 2) * (h + 2), padded *)
  zc_lut : int array; (* the orientation's zero-coding table *)
  contexts : int array;
}

let pos b x y = ((y + 1) * b.stride) + (x + 1)

(* Zero-coding contexts, ISO Table D.1 — the reference arithmetic,
   kept both as the LUT generator and as the [~lut:false] slow path
   that validates (and benchmarks against) the packed formulation. *)
let zc_primary h v d =
  if h = 2 then 8
  else if h = 1 then (if v >= 1 then 7 else if d >= 1 then 6 else 5)
  else if v = 2 then 4
  else if v = 1 then 3
  else if d >= 2 then 2
  else if d = 1 then 1
  else 0

let zc_hh hv d =
  if d >= 3 then 8
  else if d = 2 then (if hv >= 1 then 7 else 6)
  else if d = 1 then (if hv >= 2 then 5 else if hv = 1 then 4 else 3)
  else if hv >= 2 then 2
  else if hv = 1 then 1
  else 0

let zc_of_orientation = function
  | Subband.LL | Subband.LH -> zc_primary
  | Subband.HL -> fun h v d -> zc_primary v h d
  | Subband.HH -> fun h v d -> zc_hh (h + v) d

(* Sign-coding context and XOR bit, ISO Tables D.2/D.3, from the
   clamped horizontal and vertical sign contributions. *)
let sc_of_contrib hc vc =
  match (hc, vc) with
  | 1, 1 -> (13, 0)
  | 1, 0 -> (12, 0)
  | 1, -1 -> (11, 0)
  | 0, 1 -> (10, 0)
  | 0, 0 -> (9, 0)
  | 0, -1 -> (10, 1)
  | -1, 1 -> (11, 1)
  | -1, 0 -> (12, 1)
  | -1, -1 -> (13, 1)
  | _ -> assert false

(* The three zero-coding LUTs, indexed by the 8 neighbour-significance
   bits in flag order (W E N S NW NE SW SE). *)
let build_zc f =
  Array.init 256 (fun bits ->
      let b i = (bits lsr i) land 1 in
      let h = b 0 + b 1 in
      let v = b 2 + b 3 in
      let d = b 4 + b 5 + b 6 + b 7 in
      f h v d)

let lut_zc_primary = build_zc (zc_of_orientation Subband.LL)
let lut_zc_swapped = build_zc (zc_of_orientation Subband.HL)
let lut_zc_hh = build_zc (zc_of_orientation Subband.HH)

(* Sign-coding LUT, indexed by [sig W E N S | sign W E N S] (8 bits);
   each entry packs [(context lsl 1) lor xor]. *)
let lut_sc =
  Array.init 256 (fun idx ->
      let significant i = (idx lsr i) land 1 = 1 in
      let negative i = (idx lsr (4 + i)) land 1 = 1 in
      let contrib i =
        if not (significant i) then 0 else if negative i then -1 else 1
      in
      let clamp s = Stdlib.max (-1) (Stdlib.min 1 s) in
      let hc = clamp (contrib 0 + contrib 1) in
      let vc = clamp (contrib 2 + contrib 3) in
      let ctx, xor = sc_of_contrib hc vc in
      (ctx lsl 1) lor xor)

let zc_lut_for = function
  | Subband.LL | Subband.LH -> lut_zc_primary
  | Subband.HL -> lut_zc_swapped
  | Subband.HH -> lut_zc_hh

let make_blk ?(lut = true) ~orientation ~w ~h () =
  if w <= 0 || h <= 0 then invalid_arg "T1: block size";
  {
    w;
    h;
    stride = w + 2;
    orientation;
    lut;
    flags = Array.make ((w + 2) * (h + 2)) 0;
    zc_lut = zc_lut_for orientation;
    contexts = fresh_contexts ();
  }

(* -- reference (per-probe) context formation ------------------------ *)

let in_block b x y = x >= 0 && x < b.w && y >= 0 && y < b.h
let sig_at b x y = in_block b x y && b.flags.(pos b x y) land f_sig <> 0

(* Neighbourhood significance counts: horizontal, vertical, diagonal. *)
let neighbour_counts b x y =
  let s dx dy = if sig_at b (x + dx) (y + dy) then 1 else 0 in
  let h = s (-1) 0 + s 1 0 in
  let v = s 0 (-1) + s 0 1 in
  let d = s (-1) (-1) + s 1 (-1) + s (-1) 1 + s 1 1 in
  (h, v, d)

let zc_context_ref b x y =
  let h, v, d = neighbour_counts b x y in
  zc_of_orientation b.orientation h v d

let sign_contribution b x y =
  if not (sig_at b x y) then 0
  else if b.flags.(pos b x y) land f_sign <> 0 then -1
  else 1

let sc_packed_ref b x y =
  let clamp s = Stdlib.max (-1) (Stdlib.min 1 s) in
  let hc = clamp (sign_contribution b (x - 1) y + sign_contribution b (x + 1) y) in
  let vc = clamp (sign_contribution b x (y - 1) + sign_contribution b x (y + 1)) in
  let ctx, xor = sc_of_contrib hc vc in
  (ctx lsl 1) lor xor

(* -- hot context accessors ------------------------------------------ *)

let zc_context b p x y =
  if b.lut then b.zc_lut.((b.flags.(p) lsr nb_shift) land 0xFF)
  else zc_context_ref b x y

(* [(context lsl 1) lor xor], avoiding a tuple in the hot path. *)
let sc_packed b p x y =
  if b.lut then
    let f = b.flags.(p) in
    lut_sc.(((f lsr nb_shift) land 0xF) lor (((f lsr sg_shift) land 0xF) lsl 4))
  else sc_packed_ref b x y

(* Magnitude-refinement contexts, ISO Table D.4. *)
let mr_context b p x y =
  let f = b.flags.(p) in
  if f land f_refined <> 0 then 16
  else if
    (if b.lut then f land nb_mask = 0
     else
       let h, v, d = neighbour_counts b x y in
       h + v + d = 0)
  then 14
  else 15

(* Mark the coefficient at padded position [p] significant: its own
   state bits plus the incremental neighbour significance/sign bits of
   the eight surrounding cells (padding absorbs the out-of-block
   writes). *)
let set_significant b p ~neg =
  let fl = b.flags in
  let s = b.stride in
  fl.(p) <- fl.(p) lor f_sig lor f_became lor (if neg then f_sign else 0);
  fl.(p - 1) <- fl.(p - 1) lor f_nb_e lor (if neg then f_sg_e else 0);
  fl.(p + 1) <- fl.(p + 1) lor f_nb_w lor (if neg then f_sg_w else 0);
  fl.(p - s) <- fl.(p - s) lor f_nb_s lor (if neg then f_sg_s else 0);
  fl.(p + s) <- fl.(p + s) lor f_nb_n lor (if neg then f_sg_n else 0);
  fl.(p - s - 1) <- fl.(p - s - 1) lor f_nb_se;
  fl.(p - s + 1) <- fl.(p - s + 1) lor f_nb_sw;
  fl.(p + s - 1) <- fl.(p + s - 1) lor f_nb_ne;
  fl.(p + s + 1) <- fl.(p + s + 1) lor f_nb_nw

(* The bit-level interface that distinguishes encoder and decoder:
   every function codes (or decodes) through the shared MQ state and
   returns the actual bit value so the pass drivers below can be
   written once. *)
type io = {
  coeff_bit : x:int -> y:int -> plane:int -> ctx:int -> int;
      (** zero-coding or refinement bit for one coefficient *)
  sign_bit : x:int -> y:int -> ctx:int -> xor:int -> int;
      (** sign of a newly significant coefficient (0 = positive) *)
  rl_bit : x:int -> y0:int -> plane:int -> int;
      (** run-length decision for a clean stripe column *)
  uni_pos : x:int -> y0:int -> plane:int -> int;
      (** 2-bit position of the first 1 within the column *)
  on_significant : x:int -> y:int -> plane:int -> unit;
      (** magnitude bookkeeping hook (decoder sets the plane bit) *)
  on_refine : x:int -> y:int -> plane:int -> bit:int -> unit;
}

let make_significant b io ~x ~y ~plane =
  let sc = sc_packed b (pos b x y) x y in
  let s = io.sign_bit ~x ~y ~ctx:(sc lsr 1) ~xor:(sc land 1) in
  set_significant b (pos b x y) ~neg:(s = 1);
  io.on_significant ~x ~y ~plane

(* One coefficient of a cleanup or significance pass: zero-coding
   plus sign on a 1 bit. *)
let code_zc b io ~p ~x ~y ~plane =
  let bit = io.coeff_bit ~x ~y ~plane ~ctx:(zc_context b p x y) in
  if bit = 1 then make_significant b io ~x ~y ~plane

let stripe = 4

let significance_pass b io ~plane =
  let fl = b.flags in
  let k = ref 0 in
  while !k < b.h do
    for x = 0 to b.w - 1 do
      for y = !k to Stdlib.min (!k + stripe - 1) (b.h - 1) do
        let p = pos b x y in
        let f = fl.(p) in
        if f land f_sig = 0 && f land nb_mask <> 0 then begin
          code_zc b io ~p ~x ~y ~plane;
          fl.(p) <- fl.(p) lor f_visited
        end
      done
    done;
    k := !k + stripe
  done

let refinement_pass b io ~plane =
  let fl = b.flags in
  let k = ref 0 in
  while !k < b.h do
    for x = 0 to b.w - 1 do
      for y = !k to Stdlib.min (!k + stripe - 1) (b.h - 1) do
        let p = pos b x y in
        let f = fl.(p) in
        if f land (f_sig lor f_became lor f_visited) = f_sig then begin
          let ctx = mr_context b p x y in
          let bit = io.coeff_bit ~x ~y ~plane ~ctx in
          io.on_refine ~x ~y ~plane ~bit;
          fl.(p) <- fl.(p) lor f_refined lor f_visited
        end
      done
    done;
    k := !k + stripe
  done

let cleanup_pass b io ~plane =
  let fl = b.flags in
  let k = ref 0 in
  while !k < b.h do
    let y0 = !k in
    let full_column = y0 + stripe <= b.h in
    for x = 0 to b.w - 1 do
      let column_clean =
        full_column
        && (let clean = ref true in
            for y = y0 to y0 + stripe - 1 do
              let f = fl.(pos b x y) in
              if
                f land (f_sig lor f_visited) <> 0
                || (if b.lut then f land nb_mask <> 0
                    else
                      let h, v, d = neighbour_counts b x y in
                      h + v + d > 0)
              then clean := false
            done;
            !clean)
      in
      if column_clean then begin
        if io.rl_bit ~x ~y0 ~plane = 1 then begin
          let r = io.uni_pos ~x ~y0 ~plane in
          (* Coefficient y0+r is the first 1: its zero-coding bit is
             implicit; code its sign and continue below it. *)
          make_significant b io ~x ~y:(y0 + r) ~plane;
          for y = y0 + r + 1 to y0 + stripe - 1 do
            code_zc b io ~p:(pos b x y) ~x ~y ~plane
          done
        end
      end
      else
        for y = y0 to Stdlib.min (y0 + stripe - 1) (b.h - 1) do
          let p = pos b x y in
          if fl.(p) land (f_sig lor f_visited) = 0 then
            code_zc b io ~p ~x ~y ~plane
        done
    done;
    k := !k + stripe
  done

(* End of a plane: every visited/became bit drops (padding cells
   never carry them, so sweeping the whole padded block is safe). *)
let clear_plane_flags b =
  let fl = b.flags in
  let keep = lnot (f_visited lor f_became) in
  for i = 0 to Array.length fl - 1 do
    fl.(i) <- fl.(i) land keep
  done

(* The standard pass sequence, pass [i] of a block with [planes]
   bit-planes: the top plane has only its cleanup pass, every lower
   plane runs significance propagation, refinement, cleanup. *)
type pass_kind = Significance | Refinement | Cleanup

let pass_plane ~planes i = if i = 0 then planes - 1 else planes - 2 - ((i - 1) / 3)

let pass_kind i =
  if i = 0 then Cleanup
  else match (i - 1) mod 3 with 0 -> Significance | 1 -> Refinement | _ -> Cleanup

let run_pass b io ~planes i =
  let plane = pass_plane ~planes i in
  match pass_kind i with
  | Significance -> significance_pass b io ~plane
  | Refinement -> refinement_pass b io ~plane
  | Cleanup ->
    cleanup_pass b io ~plane;
    clear_plane_flags b

let total_passes ~planes = if planes = 0 then 0 else 1 + (3 * (planes - 1))

let num_planes coeffs =
  let m = Array.fold_left (fun acc c -> Stdlib.max acc (abs c)) 0 coeffs in
  let rec bits n acc = if n = 0 then acc else bits (n lsr 1) (acc + 1) in
  bits m 0

let check_dims ~w ~h len =
  if w <= 0 || h <= 0 || len <> w * h then invalid_arg "T1: dimensions"

(* Decoders take a plane count from the codestream (one byte there);
   a negative count is a caller error, refused by both drivers alike. *)
let check_decode_args ~w ~h ~planes =
  check_dims ~w ~h (w * h);
  if planes < 0 then invalid_arg "T1: planes"

let make_encoder_io b enc coeffs w =
  let magnitude x y = abs coeffs.((y * w) + x) in
  let bit_of x y plane = (magnitude x y lsr plane) land 1 in
  {
    coeff_bit =
      (fun ~x ~y ~plane ~ctx ->
        let bit = bit_of x y plane in
        Mq.encode !enc b.contexts ctx bit;
        bit);
    sign_bit =
      (fun ~x ~y ~ctx ~xor ->
        let s = if coeffs.((y * w) + x) < 0 then 1 else 0 in
        Mq.encode !enc b.contexts ctx (s lxor xor);
        s);
    rl_bit =
      (fun ~x ~y0 ~plane ->
        let any = ref 0 in
        for y = y0 to y0 + 3 do
          if bit_of x y plane = 1 then any := 1
        done;
        Mq.encode !enc b.contexts ctx_rl !any;
        !any);
    uni_pos =
      (fun ~x ~y0 ~plane ->
        let rec first r = if bit_of x (y0 + r) plane = 1 then r else first (r + 1) in
        let r = first 0 in
        Mq.encode !enc b.contexts ctx_uni ((r lsr 1) land 1);
        Mq.encode !enc b.contexts ctx_uni (r land 1);
        r);
    on_significant = (fun ~x:_ ~y:_ ~plane:_ -> ());
    on_refine = (fun ~x:_ ~y:_ ~plane:_ ~bit:_ -> ());
  }

let encode_block ?lut ~orientation ~w ~h coeffs =
  check_dims ~w ~h (Array.length coeffs);
  let planes = num_planes coeffs in
  if planes = 0 then (0, "")
  else begin
    let b = make_blk ?lut ~orientation ~w ~h () in
    let enc = ref (Mq.encoder ()) in
    let io = make_encoder_io b enc coeffs w in
    for i = 0 to total_passes ~planes - 1 do
      run_pass b io ~planes i
    done;
    (planes, Mq.flush !enc)
  end

(* The generic driver's decoder: the [~lut:false] reference the
   column-word passes below are checked against. *)
let make_decoder_io b d magnitudes w =
  let set_bit x y plane =
    magnitudes.((y * w) + x) <- magnitudes.((y * w) + x) lor (1 lsl plane)
  in
  {
    coeff_bit = (fun ~x:_ ~y:_ ~plane:_ ~ctx -> decide d b.contexts ctx);
    sign_bit = (fun ~x:_ ~y:_ ~ctx ~xor -> decide d b.contexts ctx lxor xor);
    rl_bit = (fun ~x:_ ~y0:_ ~plane:_ -> decide d b.contexts ctx_rl);
    uni_pos =
      (fun ~x:_ ~y0:_ ~plane:_ ->
        let hi = decide d b.contexts ctx_uni in
        let lo = decide d b.contexts ctx_uni in
        (hi lsl 1) lor lo);
    on_significant = (fun ~x ~y ~plane -> set_bit x y plane);
    on_refine = (fun ~x ~y ~plane ~bit -> if bit = 1 then set_bit x y plane);
  }

(* -- decoding passes on stripe-column words -----------------------------

   The three passes once more, for decoding only, over one word per
   four-row stripe column (OpenJPEG's layout). The word array is
   padded by one column and one stripe on every side. Word bits:

   - 0-17: significance of the column's 3x6 neighbourhood, rows -1..4
     of the stripe (i = 0..5) by column W, self, E (c = 0..2) at bit
     [3i + c]. Row r's 3x3 window is bits [3r .. 3r + 8], in the order
     NW N NE W self E SW S SE.
   - 18-23: sign (1 = negative) of the column's own rows -1..4.
   - 24-27: refined, rows 0..3.
   - 28-31: visited in this bit-plane, rows 0..3.

   Rows -1 and 4 repeat the neighbouring stripes' edge rows, so a
   significance change writes three words, six at a stripe edge. A
   pass skips a column on one load: the significance pass when the
   word is 0, the refinement pass when no own row is significant. The
   run-length test of the cleanup pass is word = 0. One 512-entry
   table per orientation maps a row's window to its context: with the
   self bit clear, the zero-coding context (Table D.1); with it set,
   the refinement context 14 or 15 (Table D.4). The cleanup pass
   clears a column's visited bits as it leaves it, so no sweep ends a
   plane. The order of decisions and the context of each are those of
   the generic passes, so the output is bit-identical; the tests pin
   it against [~lut:false]. *)

let sig_rows = 0x2490 (* own significance of rows 0..3: bits 4, 7, 10, 13 *)
let visited_rows = 0xF lsl 28

let[@inline] sig_row r = 1 lsl ((3 * r) + 4)
let[@inline] refined_row r = 1 lsl (24 + r)
let[@inline] visited_row r = 1 lsl (28 + r)
let[@inline] window f r = (f lsr (3 * r)) land 0x1FF

let build_window zc =
  Array.init 512 (fun win ->
      let b i = (win lsr i) land 1 in
      let h = b 3 + b 5 and v = b 1 + b 7 and d = b 0 + b 2 + b 6 + b 8 in
      if b 4 = 1 then if h + v + d = 0 then 14 else 15 else zc h v d)

let win_primary = build_window (zc_of_orientation Subband.LL)
let win_swapped = build_window (zc_of_orientation Subband.HL)
let win_hh = build_window (zc_of_orientation Subband.HH)

let window_lut_for = function
  | Subband.LL | Subband.LH -> win_primary
  | Subband.HL -> win_swapped
  | Subband.HH -> win_hh

(* Sign-coding LUT over what a column word yields for row r: index
   bits 1, 3, 5, 7 are the window's N, W, E, S significance, bits 0
   and 2 the N and S signs (own word), bits 4 and 6 the W and E signs
   (the neighbouring words). Entries are [lut_sc]'s. *)
let lut_sc_col =
  Array.init 256 (fun idx ->
      let b i = (idx lsr i) land 1 in
      lut_sc.(b 3 lor (b 5 lsl 1) lor (b 1 lsl 2) lor (b 7 lsl 3) lor (b 4 lsl 4)
              lor (b 6 lsl 5) lor (b 0 lsl 6) lor (b 2 lsl 7)))

(* One block's decoding state: its words, window LUT, contexts and
   magnitude buffer (either fresh or the domain's scratch). *)
type cblk = {
  cw : int array; (* (cw_w + 2) * (stripes + 2) words, padded *)
  cs : int; (* cw_w + 2 *)
  cw_w : int;
  cw_h : int;
  win : int array;
  cx : int array;
  mag : int array;
}

let stripes h = (h + stripe - 1) / stripe
let words_for ~w ~h = (w + 2) * (stripes h + 2)

let cblk ~orientation ~w ~h cw cx mag =
  { cw; cs = w + 2; cw_w = w; cw_h = h; win = window_lut_for orientation; cx; mag }

(* Coefficient (x, 4k + r) became significant: [p] is its column word
   (stripe k), [neg] 1 for a negative sign. *)
let col_set_significant cw s p r neg =
  cw.(p) <- cw.(p) lor sig_row r lor (neg lsl (19 + r));
  cw.(p - 1) <- cw.(p - 1) lor (1 lsl ((3 * r) + 5));
  cw.(p + 1) <- cw.(p + 1) lor (1 lsl ((3 * r) + 3));
  if r = 0 then begin
    (* row 4 of the stripe above *)
    cw.(p - s) <- cw.(p - s) lor (1 lsl 16) lor (neg lsl 23);
    cw.(p - s - 1) <- cw.(p - s - 1) lor (1 lsl 17);
    cw.(p - s + 1) <- cw.(p - s + 1) lor (1 lsl 15)
  end
  else if r = 3 then begin
    (* row -1 of the stripe below *)
    cw.(p + s) <- cw.(p + s) lor (1 lsl 1) lor (neg lsl 18);
    cw.(p + s - 1) <- cw.(p + s - 1) lor (1 lsl 2);
    cw.(p + s + 1) <- cw.(p + s + 1) lor 1
  end

(* A 1 decoded in a zero-coding context (or implied by the run-length
   path) at row [r] of word [p], magnitude index [m]: decode the sign,
   mark the coefficient significant, set its magnitude bit [one]. *)
let dec_significant k d ~p ~r ~m ~one =
  let cw = k.cw in
  let f = cw.(p) in
  let sc =
    lut_sc_col.(((f lsr (3 * r)) land 0xAA)
                lor ((f lsr (18 + r)) land 5)
                lor ((cw.(p - 1) lsr (15 + r)) land 0x10)
                lor ((cw.(p + 1) lsr (13 + r)) land 0x40))
  in
  let neg = decide d k.cx (sc lsr 1) lxor (sc land 1) in
  col_set_significant cw k.cs p r neg;
  k.mag.(m) <- k.mag.(m) lor one

(* One row of a significance pass: row [r] of word [p], magnitude
   index [m]. Inlined with a constant [r], so its shifts are constants. *)
let[@inline] sig_row_step k d cw cx win ~p ~r ~m ~one =
  let wn = window cw.(p) r in
  if wn land 0x10 = 0 && wn <> 0 then begin
    if decide d cx win.(wn) = 1 then dec_significant k d ~p ~r ~m ~one;
    cw.(p) <- cw.(p) lor visited_row r
  end

let dec_significance k d ~plane =
  let cw = k.cw and cx = k.cx and win = k.win in
  let w = k.cw_w and h = k.cw_h and s = k.cs in
  let one = 1 lsl plane in
  let y0 = ref 0 and base = ref (s + 1) in
  while !y0 < h do
    let rows = if h - !y0 < stripe then h - !y0 else stripe in
    for x = 0 to w - 1 do
      let p = !base + x in
      if cw.(p) <> 0 then begin
        let m = (!y0 * w) + x in
        sig_row_step k d cw cx win ~p ~r:0 ~m ~one;
        if rows > 1 then begin
          sig_row_step k d cw cx win ~p ~r:1 ~m:(m + w) ~one;
          if rows > 2 then begin
            sig_row_step k d cw cx win ~p ~r:2 ~m:(m + (2 * w)) ~one;
            if rows > 3 then sig_row_step k d cw cx win ~p ~r:3 ~m:(m + (3 * w)) ~one
          end
        end
      end
    done;
    y0 := !y0 + stripe;
    base := !base + s
  done

(* One row of a refinement pass on the column's word [f] (no
   significance changes in this pass): the word with the row's refined
   bit set. *)
let[@inline] ref_row_step d cx win mag f ~r ~m ~one =
  if f land (sig_row r lor visited_row r) = sig_row r then begin
    let c = if f land refined_row r <> 0 then 16 else win.(window f r) in
    if decide d cx c = 1 then mag.(m) <- mag.(m) lor one;
    f lor refined_row r
  end
  else f

let dec_refinement k d ~plane =
  let cw = k.cw and cx = k.cx and win = k.win and mag = k.mag in
  let w = k.cw_w and h = k.cw_h and s = k.cs in
  let one = 1 lsl plane in
  let y0 = ref 0 and base = ref (s + 1) in
  while !y0 < h do
    let rows = if h - !y0 < stripe then h - !y0 else stripe in
    for x = 0 to w - 1 do
      let p = !base + x in
      let f = cw.(p) in
      if f land sig_rows <> 0 then begin
        let m = (!y0 * w) + x in
        let f = ref_row_step d cx win mag f ~r:0 ~m ~one in
        let f =
          if rows > 1 then begin
            let f = ref_row_step d cx win mag f ~r:1 ~m:(m + w) ~one in
            if rows > 2 then begin
              let f = ref_row_step d cx win mag f ~r:2 ~m:(m + (2 * w)) ~one in
              if rows > 3 then ref_row_step d cx win mag f ~r:3 ~m:(m + (3 * w)) ~one
              else f
            end
            else f
          end
          else f
        in
        cw.(p) <- f
      end
    done;
    y0 := !y0 + stripe;
    base := !base + s
  done

(* One row of a cleanup pass that is neither significant nor visited. *)
let[@inline] clean_row_step k d cw cx win ~p ~r ~m ~one =
  let f = cw.(p) in
  if f land (sig_row r lor visited_row r) = 0 && decide d cx win.(window f r) = 1
  then dec_significant k d ~p ~r ~m ~one

let dec_cleanup k d ~plane =
  let cw = k.cw and cx = k.cx and win = k.win in
  let w = k.cw_w and h = k.cw_h and s = k.cs in
  let one = 1 lsl plane in
  let y0 = ref 0 and base = ref (s + 1) in
  while !y0 < h do
    let rows = if h - !y0 < stripe then h - !y0 else stripe in
    for x = 0 to w - 1 do
      let p = !base + x in
      let m = (!y0 * w) + x in
      (* A full column whose word is 0 takes the run-length path;
         [first] is the row zero coding resumes at. Below the
         run-length 1 every row is still neither significant nor
         visited, so one sequence serves both paths. *)
      let first =
        if rows = stripe && cw.(p) = 0 then
          if decide d cx ctx_rl = 0 then stripe
          else begin
            let hi = decide d cx ctx_uni in
            let lo = decide d cx ctx_uni in
            let r = (hi lsl 1) lor lo in
            dec_significant k d ~p ~r ~m:(m + (r * w)) ~one;
            r + 1
          end
        else 0
      in
      if first < stripe then begin
        if first = 0 then clean_row_step k d cw cx win ~p ~r:0 ~m ~one;
        if first <= 1 && rows > 1 then
          clean_row_step k d cw cx win ~p ~r:1 ~m:(m + w) ~one;
        if first <= 2 && rows > 2 then
          clean_row_step k d cw cx win ~p ~r:2 ~m:(m + (2 * w)) ~one;
        if rows > 3 then clean_row_step k d cw cx win ~p ~r:3 ~m:(m + (3 * w)) ~one;
        cw.(p) <- cw.(p) land lnot visited_rows
      end
    done;
    y0 := !y0 + stripe;
    base := !base + s
  done

let dec_pass k d ~planes i =
  let plane = pass_plane ~planes i in
  match pass_kind i with
  | Significance -> dec_significance k d ~plane
  | Refinement -> dec_refinement k d ~plane
  | Cleanup -> dec_cleanup k d ~plane

(* Negate the magnitudes of negative coefficients in place: the
   buffer's [w * h] prefix becomes the signed block. *)
let col_apply_signs k =
  let w = k.cw_w and h = k.cw_h in
  let y0 = ref 0 and base = ref (k.cs + 1) in
  while !y0 < h do
    let rows = if h - !y0 < stripe then h - !y0 else stripe in
    for x = 0 to w - 1 do
      let f = k.cw.(!base + x) in
      for r = 0 to rows - 1 do
        if f land (1 lsl (19 + r)) <> 0 then begin
          let m = ((!y0 + r) * w) + x in
          k.mag.(m) <- -k.mag.(m)
        end
      done
    done;
    y0 := !y0 + stripe;
    base := !base + k.cs
  done

let apply_signs b mag =
  for y = 0 to b.h - 1 do
    let row = y * b.w and frow = ((y + 1) * b.stride) + 1 in
    for x = 0 to b.w - 1 do
      if b.flags.(frow + x) land f_sign <> 0 then mag.(row + x) <- -mag.(row + x)
    done
  done

(* -- decode entry points ----------------------------------------------

   A block's passes come from one codeword, or from one segment per
   pass: as many passes as there are segments, at most the schedule's.
   [lut] selects the passes: the column-word ones by default, the
   generic [io] ones with reference contexts under [~lut:false].
   Either decodes into [k.mag], which must hold [w * h] zeros. *)

type input = Codeword of string | Segments of string list

let feed d ~planes input pass =
  let total = total_passes ~planes in
  match input with
  | Codeword data ->
    mq_start d data;
    for i = 0 to total - 1 do
      pass i
    done
  | Segments segments ->
    List.iteri
      (fun i segment ->
        if i < total then begin
          mq_start d segment;
          pass i
        end)
      segments

let decode_into ~lut ~orientation ~planes k d input =
  if lut then begin
    feed d ~planes input (dec_pass k d ~planes);
    col_apply_signs k
  end
  else begin
    let b = make_blk ~lut:false ~orientation ~w:k.cw_w ~h:k.cw_h () in
    feed d ~planes input (run_pass b (make_decoder_io b d k.mag k.cw_w) ~planes);
    apply_signs b k.mag
  end

let decode_fresh ?(lut = true) ~orientation ~w ~h ~planes input =
  check_decode_args ~w ~h ~planes;
  let k =
    cblk ~orientation ~w ~h
      (Array.make (words_for ~w ~h) 0)
      (fresh_contexts ()) (Array.make (w * h) 0)
  in
  if planes > 0 then decode_into ~lut ~orientation ~planes k (mq_blank ()) input;
  k.mag

let decode_block ?lut ~orientation ~w ~h ~planes data =
  decode_fresh ?lut ~orientation ~w ~h ~planes (Codeword data)

(* -- SNR-scalable variant ---------------------------------------------

   Every coding pass is terminated into its own MQ codeword (the
   standard's RESTART/segmentation option, contexts carried across
   passes), so a codestream can be truncated at any pass boundary and
   still decode exactly up to that pass. *)

let encode_block_scalable ?lut ~orientation ~w ~h coeffs =
  check_dims ~w ~h (Array.length coeffs);
  let planes = num_planes coeffs in
  if planes = 0 then (0, [])
  else begin
    let b = make_blk ?lut ~orientation ~w ~h () in
    let enc = ref (Mq.encoder ()) in
    let io = make_encoder_io b enc coeffs w in
    let segments = ref [] in
    for i = 0 to total_passes ~planes - 1 do
      run_pass b io ~planes i;
      segments := Mq.flush !enc :: !segments;
      enc := Mq.encoder ()
    done;
    (planes, List.rev !segments)
  end

let decode_block_scalable ?lut ~orientation ~w ~h ~planes segments =
  decode_fresh ?lut ~orientation ~w ~h ~planes (Segments segments)

(* -- per-domain scratch decode ----------------------------------------

   The allocating entry points above pay a word array, a magnitude
   buffer and a context array per code block; on the parallel decode
   path that per-block minor-heap churn is what forces the domains to
   rendezvous at every collection. The scratch variant keeps one
   decode state per domain in [Domain.DLS] and re-initialises it in
   place, so a worker decodes an entire tile's blocks allocating only
   a few words per block (the block record, the input and two
   closures). *)

type scratch = {
  mutable sc_words : int array;
  mutable sc_mag : int array;
  sc_contexts : int array;
  sc_mq : mq_decoder;
}

let scratch_key : scratch Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        sc_words = [||];
        sc_mag = [||];
        sc_contexts = fresh_contexts ();
        sc_mq = mq_blank ();
      })

let decode_block_scalable_scratch ?(lut = true) ~orientation ~w ~h ~planes
    segments =
  check_decode_args ~w ~h ~planes;
  let s = Domain.DLS.get scratch_key in
  let n = words_for ~w ~h in
  if Array.length s.sc_words < n then s.sc_words <- Array.make n 0
  else Array.fill s.sc_words 0 n 0;
  if Array.length s.sc_mag < w * h then s.sc_mag <- Array.make (w * h) 0
  else Array.fill s.sc_mag 0 (w * h) 0;
  reset_contexts s.sc_contexts;
  let k = cblk ~orientation ~w ~h s.sc_words s.sc_contexts s.sc_mag in
  if planes > 0 then
    decode_into ~lut ~orientation ~planes k s.sc_mq (Segments segments);
  s.sc_mag
