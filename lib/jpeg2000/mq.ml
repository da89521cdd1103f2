(* Probability estimation table, ISO/IEC 15444-1 Table C.2:
   (Qe, NMPS, NLPS, SWITCH) per state. *)
let qe_table =
  [|
    (0x5601, 1, 1, 1);
    (0x3401, 2, 6, 0);
    (0x1801, 3, 9, 0);
    (0x0AC1, 4, 12, 0);
    (0x0521, 5, 29, 0);
    (0x0221, 38, 33, 0);
    (0x5601, 7, 6, 1);
    (0x5401, 8, 14, 0);
    (0x4801, 9, 14, 0);
    (0x3801, 10, 14, 0);
    (0x3001, 11, 17, 0);
    (0x2401, 12, 18, 0);
    (0x1C01, 13, 20, 0);
    (0x1601, 29, 21, 0);
    (0x5601, 15, 14, 1);
    (0x5401, 16, 14, 0);
    (0x5101, 17, 15, 0);
    (0x4801, 18, 16, 0);
    (0x3801, 19, 17, 0);
    (0x3401, 20, 18, 0);
    (0x3001, 21, 19, 0);
    (0x2801, 22, 19, 0);
    (0x2401, 23, 20, 0);
    (0x2201, 24, 21, 0);
    (0x1C01, 25, 22, 0);
    (0x1801, 26, 23, 0);
    (0x1601, 27, 24, 0);
    (0x1401, 28, 25, 0);
    (0x1201, 29, 26, 0);
    (0x1101, 30, 27, 0);
    (0x0AC1, 31, 28, 0);
    (0x09C1, 32, 29, 0);
    (0x08A1, 33, 30, 0);
    (0x0521, 34, 31, 0);
    (0x0441, 35, 32, 0);
    (0x02A1, 36, 33, 0);
    (0x0221, 37, 34, 0);
    (0x0141, 38, 35, 0);
    (0x0111, 39, 36, 0);
    (0x0085, 40, 37, 0);
    (0x0049, 41, 38, 0);
    (0x0025, 42, 39, 0);
    (0x0015, 43, 40, 0);
    (0x0009, 44, 41, 0);
    (0x0005, 45, 42, 0);
    (0x0001, 45, 43, 0);
    (0x5601, 46, 46, 0);
  |]

(* The table's four columns as flat int arrays, derived once: a
   lookup per coded decision is one array load, not a load of a boxed
   row plus a field. *)
let column f = Array.map f qe_table
let qe_col = column (fun (v, _, _, _) -> v)
let nmps_col = column (fun (_, v, _, _) -> v)
let nlps_col = column (fun (_, _, v, _) -> v)
let switch_col = column (fun (_, _, _, v) -> v)
let qe i = qe_col.(i)
let nmps i = nmps_col.(i)
let nlps i = nlps_col.(i)
let switch i = switch_col.(i)

let num_states = Array.length qe_table

let state i =
  if i < 0 || i >= num_states then invalid_arg "Mq.state: index";
  (qe i, nmps i, nlps i, switch i)

type context = { mutable index : int; mutable mps : int }

let check_state index mps =
  if index < 0 || index >= num_states then
    invalid_arg "Mq.context: index";
  if mps <> 0 && mps <> 1 then invalid_arg "Mq.context: mps"

let context ?(index = 0) ?(mps = 0) () =
  check_state index mps;
  { index; mps }

let reset_context ctx ~index ~mps =
  check_state index mps;
  ctx.index <- index;
  ctx.mps <- mps

let context_mps ctx = ctx.mps

(* -- Encoder --------------------------------------------------------

   The byte buffer includes a virtual byte at position 0 that absorbs
   a carry out of the first real byte; it is dropped at flush (the
   classic `bp = start - 1` implementation idiom). *)

type encoder = {
  mutable a : int;
  mutable c : int;
  mutable ct : int;
  mutable bytes : Bytes.t;
  mutable len : int; (* bytes used, including the virtual first byte *)
}

let encoder () =
  let bytes = Bytes.make 64 '\000' in
  { a = 0x8000; c = 0; ct = 12; bytes; len = 1 }

let push_byte e v =
  if e.len = Bytes.length e.bytes then begin
    let bigger = Bytes.make (2 * e.len) '\000' in
    Bytes.blit e.bytes 0 bigger 0 e.len;
    e.bytes <- bigger
  end;
  Bytes.set e.bytes e.len (Char.chr (v land 0xFF));
  e.len <- e.len + 1

let last_byte e = Char.code (Bytes.get e.bytes (e.len - 1))

let set_last_byte e v = Bytes.set e.bytes (e.len - 1) (Char.chr (v land 0xFF))

let byteout e =
  if last_byte e = 0xFF then begin
    push_byte e (e.c lsr 20);
    e.c <- e.c land 0xFFFFF;
    e.ct <- 7
  end
  else if e.c land 0x8000000 = 0 then begin
    push_byte e (e.c lsr 19);
    e.c <- e.c land 0x7FFFF;
    e.ct <- 8
  end
  else begin
    set_last_byte e (last_byte e + 1);
    if last_byte e = 0xFF then begin
      e.c <- e.c land 0x7FFFFFF;
      push_byte e (e.c lsr 20);
      e.c <- e.c land 0xFFFFF;
      e.ct <- 7
    end
    else begin
      push_byte e (e.c lsr 19);
      e.c <- e.c land 0x7FFFF;
      e.ct <- 8
    end
  end

let renorm_enc e =
  let continue = ref true in
  while !continue do
    e.a <- (e.a lsl 1) land 0xFFFF;
    e.c <- (e.c lsl 1) land 0xFFFFFFF;
    e.ct <- e.ct - 1;
    if e.ct = 0 then byteout e;
    if e.a land 0x8000 <> 0 then continue := false
  done

let encode e ctx bit =
  if bit <> 0 && bit <> 1 then invalid_arg "Mq.encode: bit";
  let q = qe ctx.index in
  if bit = ctx.mps then begin
    (* CODEMPS *)
    e.a <- e.a - q;
    if e.a land 0x8000 = 0 then begin
      if e.a < q then e.a <- q else e.c <- e.c + q;
      ctx.index <- nmps ctx.index;
      renorm_enc e
    end
    else e.c <- e.c + q
  end
  else begin
    (* CODELPS *)
    e.a <- e.a - q;
    if e.a < q then e.c <- e.c + q else e.a <- q;
    if switch ctx.index = 1 then ctx.mps <- 1 - ctx.mps;
    ctx.index <- nlps ctx.index;
    renorm_enc e
  end

let flush e =
  (* SETBITS *)
  let tempc = e.c + e.a in
  e.c <- e.c lor 0xFFFF;
  if e.c >= tempc then e.c <- e.c - 0x8000;
  e.c <- (e.c lsl e.ct) land 0xFFFFFFF;
  byteout e;
  e.c <- (e.c lsl e.ct) land 0xFFFFFFF;
  byteout e;
  (* Drop a trailing 0xFF (the decoder synthesises it) and the
     virtual first byte. *)
  let stop = if last_byte e = 0xFF then e.len - 1 else e.len in
  Bytes.sub_string e.bytes 1 (stop - 1)

(* -- Decoder ------------------------------------------------------- *)

type decoder = {
  data : string;
  mutable pos : int; (* index of the byte B currently in use *)
  mutable d_a : int;
  mutable d_c : int;
  mutable d_ct : int;
}

let byte_at d i =
  if i < String.length d.data then Char.code d.data.[i] else 0xFF

let bytein d =
  if byte_at d d.pos = 0xFF then begin
    if byte_at d (d.pos + 1) > 0x8F then begin
      (* Marker (or synthesised end): feed 1-bits forever. *)
      d.d_c <- d.d_c + 0xFF00;
      d.d_ct <- 8
    end
    else begin
      d.pos <- d.pos + 1;
      d.d_c <- d.d_c + (byte_at d d.pos lsl 9);
      d.d_ct <- 7
    end
  end
  else begin
    d.pos <- d.pos + 1;
    d.d_c <- d.d_c + (byte_at d d.pos lsl 8);
    d.d_ct <- 8
  end

let decoder data =
  let d = { data; pos = 0; d_a = 0; d_c = 0; d_ct = 0 } in
  d.d_c <- byte_at d 0 lsl 16;
  bytein d;
  d.d_c <- (d.d_c lsl 7) land 0xFFFFFFFF;
  d.d_ct <- d.d_ct - 7;
  d.d_a <- 0x8000;
  d

let renorm_dec d =
  let continue = ref true in
  while !continue do
    if d.d_ct = 0 then bytein d;
    d.d_a <- (d.d_a lsl 1) land 0xFFFF;
    d.d_c <- (d.d_c lsl 1) land 0xFFFFFFFF;
    d.d_ct <- d.d_ct - 1;
    if d.d_a land 0x8000 <> 0 then continue := false
  done

let decode d ctx =
  let q = qe ctx.index in
  d.d_a <- d.d_a - q;
  let decision =
    if (d.d_c lsr 16) land 0xFFFF < q then begin
      (* LPS path (chigh < Qe): conditional exchange *)
      let bit =
        if d.d_a < q then begin
          let bit = ctx.mps in
          ctx.index <- nmps ctx.index;
          bit
        end
        else begin
          let bit = 1 - ctx.mps in
          if switch ctx.index = 1 then ctx.mps <- 1 - ctx.mps;
          ctx.index <- nlps ctx.index;
          bit
        end
      in
      d.d_a <- q;
      renorm_dec d;
      bit
    end
    else begin
      d.d_c <- d.d_c - (q lsl 16);
      if d.d_a land 0x8000 = 0 then begin
        let bit =
          if d.d_a < q then begin
            let bit = 1 - ctx.mps in
            if switch ctx.index = 1 then ctx.mps <- 1 - ctx.mps;
            ctx.index <- nlps ctx.index;
            bit
          end
          else begin
            let bit = ctx.mps in
            ctx.index <- nmps ctx.index;
            bit
          end
        in
        renorm_dec d;
        bit
      end
      else ctx.mps
    end
  in
  decision
