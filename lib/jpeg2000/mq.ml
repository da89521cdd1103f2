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

let num_states = Array.length qe_table

(* The table as three flat arrays over packed context states
   [(index lsl 1) lor mps], derived once: a decision is one load of
   Qe and one load of the next state, with the MPS switch of an LPS
   already folded into [after_lps]. *)
let packed f =
  Array.init (2 * num_states) (fun st -> f qe_table.(st lsr 1) (st land 1))

let qe = packed (fun (q, _, _, _) _ -> q)
let after_mps = packed (fun (_, nmps, _, _) mps -> (nmps lsl 1) lor mps)

let after_lps =
  packed (fun (_, _, nlps, switch) mps -> (nlps lsl 1) lor (mps lxor switch))

let state i =
  if i < 0 || i >= num_states then invalid_arg "Mq.state: index";
  let st = i lsl 1 in
  (qe.(st), after_mps.(st) lsr 1, after_lps.(st) lsr 1, after_lps.(st) land 1)

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

let encode e contexts i bit =
  if bit <> 0 && bit <> 1 then invalid_arg "Mq.encode: bit";
  let st = contexts.(i) in
  let q = qe.(st) in
  if bit = st land 1 then begin
    (* CODEMPS *)
    e.a <- e.a - q;
    if e.a land 0x8000 = 0 then begin
      if e.a < q then e.a <- q else e.c <- e.c + q;
      contexts.(i) <- after_mps.(st);
      renorm_enc e
    end
    else e.c <- e.c + q
  end
  else begin
    (* CODELPS *)
    e.a <- e.a - q;
    if e.a < q then e.c <- e.c + q else e.a <- q;
    contexts.(i) <- after_lps.(st);
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
