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

let length_prefix w n = put w (Int32.of_int n)

let read_length r =
  let n = Int32.to_int (take r) in
  if n < 0 then invalid_arg "Serialisation.decode: negative length";
  n

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
