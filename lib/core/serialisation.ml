type writer = { mutable words : int32 list; mutable count : int }
type reader = { data : int32 array; mutable pos : int }

type 'a codec = { wr : writer -> 'a -> unit; rd : reader -> 'a }

let put w word =
  w.words <- word :: w.words;
  w.count <- w.count + 1

let take r =
  if r.pos >= Array.length r.data then
    invalid_arg "Serialisation.decode: truncated input";
  let word = r.data.(r.pos) in
  r.pos <- r.pos + 1;
  word

let encode c v =
  let w = { words = []; count = 0 } in
  c.wr w v;
  let out = Array.make w.count 0l in
  List.iteri (fun i word -> out.(w.count - 1 - i) <- word) w.words;
  out

let decode c data =
  let r = { data; pos = 0 } in
  let v = c.rd r in
  if r.pos <> Array.length data then
    invalid_arg "Serialisation.decode: trailing words";
  v

let word_count c v =
  let w = { words = []; count = 0 } in
  c.wr w v;
  w.count

let unit = { wr = (fun _ () -> ()); rd = (fun _ -> ()) }

let bool =
  {
    wr = (fun w b -> put w (if b then 1l else 0l));
    rd =
      (fun r ->
        match take r with
        | 0l -> false
        | 1l -> true
        | _ -> invalid_arg "Serialisation.decode: bad bool");
  }

let int32 = { wr = put; rd = take }

let int =
  {
    wr =
      (fun w v ->
        put w (Int64.to_int32 (Int64.of_int v));
        put w (Int64.to_int32 (Int64.shift_right (Int64.of_int v) 32)));
    rd =
      (fun r ->
        let lo = Int64.logand (Int64.of_int32 (take r)) 0xFFFF_FFFFL in
        let hi = Int64.of_int32 (take r) in
        Int64.to_int (Int64.logor lo (Int64.shift_left hi 32)));
  }

let int16 =
  {
    wr =
      (fun w v ->
        if v < -32768 || v > 32767 then
          invalid_arg "Serialisation.int16: out of range";
        put w (Int32.of_int v));
    rd = (fun r -> Int32.to_int (take r));
  }

let float =
  {
    wr =
      (fun w v ->
        let bits = Int64.bits_of_float v in
        put w (Int64.to_int32 bits);
        put w (Int64.to_int32 (Int64.shift_right_logical bits 32)));
    rd =
      (fun r ->
        let lo = Int64.logand (Int64.of_int32 (take r)) 0xFFFF_FFFFL in
        let hi = Int64.logand (Int64.of_int32 (take r)) 0xFFFF_FFFFL in
        Int64.float_of_bits (Int64.logor lo (Int64.shift_left hi 32)));
  }

let pair a b =
  {
    wr =
      (fun w (x, y) ->
        a.wr w x;
        b.wr w y);
    rd =
      (fun r ->
        let x = a.rd r in
        let y = b.rd r in
        (x, y));
  }

let triple a b c =
  {
    wr =
      (fun w (x, y, z) ->
        a.wr w x;
        b.wr w y;
        c.wr w z);
    rd =
      (fun r ->
        let x = a.rd r in
        let y = b.rd r in
        let z = c.rd r in
        (x, y, z));
  }

let length_prefix w n = put w (Int32.of_int n)

let read_length r =
  let n = Int32.to_int (take r) in
  if n < 0 then invalid_arg "Serialisation.decode: negative length";
  n

let list elem =
  {
    wr =
      (fun w items ->
        length_prefix w (List.length items);
        List.iter (elem.wr w) items);
    rd =
      (fun r ->
        let n = read_length r in
        List.init n (fun _ -> elem.rd r));
  }

let array elem =
  {
    wr =
      (fun w items ->
        length_prefix w (Array.length items);
        Array.iter (elem.wr w) items);
    rd =
      (fun r ->
        let n = read_length r in
        Array.init n (fun _ -> elem.rd r));
  }

let option elem =
  {
    wr =
      (fun w v ->
        match v with
        | None -> put w 0l
        | Some x ->
          put w 1l;
          elem.wr w x);
    rd =
      (fun r ->
        match take r with
        | 0l -> None
        | 1l -> Some (elem.rd r)
        | _ -> invalid_arg "Serialisation.decode: bad option tag");
  }

let fits_int32 v = v >= Int32.to_int Int32.min_int && v <= Int32.to_int Int32.max_int

let int_word =
  {
    wr =
      (fun w v ->
        if not (fits_int32 v) then
          invalid_arg "Serialisation.int_array: element exceeds 32 bits";
        put w (Int32.of_int v));
    rd = (fun r -> Int32.to_int (take r));
  }

let int_array = array int_word
