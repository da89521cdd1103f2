type plane = { width : int; height : int; data : Bytes.t }

type t = { planes : plane array; bit_depth : int }

(* Sample [i] is the native-endian 16-bit word at byte [2 * i]. These
   primitives compile to one load or store without a bounds check;
   every caller below has checked its whole range first. *)
external get16 : Bytes.t -> int -> int = "%caml_bytes_get16u"
external set16 : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"

let create_plane ~width ~height =
  if width <= 0 || height <= 0 then invalid_arg "Image.create_plane: size";
  { width; height; data = Bytes.make (2 * width * height) '\000' }

let check_xy name p ~x ~y =
  if x < 0 || x >= p.width || y < 0 || y >= p.height then
    invalid_arg (name ^ ": out of bounds")

(* A 16-bit store would keep only the low bits of anything wider. *)
let check_sample name v =
  if v < 0 || v > 0xFFFF then invalid_arg (name ^ ": sample out of range")

let plane_get p ~x ~y =
  check_xy "Image.plane_get" p ~x ~y;
  get16 p.data (2 * ((y * p.width) + x))

let plane_set p ~x ~y v =
  check_xy "Image.plane_set" p ~x ~y;
  check_sample "Image.plane_set" v;
  set16 p.data (2 * ((y * p.width) + x)) v

let fill_rect p ~x ~y ~width ~height v =
  check_sample "Image.fill_rect" v;
  if
    width <= 0 || height <= 0 || x < 0 || y < 0 || x + width > p.width
    || y + height > p.height
  then invalid_arg "Image.fill_rect: rectangle out of bounds";
  (* The first row sample by sample, the others copied from it. *)
  let first = 2 * ((y * p.width) + x) in
  for i = 0 to width - 1 do
    set16 p.data (first + (2 * i)) v
  done;
  for row = 1 to height - 1 do
    Bytes.unsafe_blit p.data first p.data (first + (2 * row * p.width)) (2 * width)
  done

let fill_plane p v = fill_rect p ~x:0 ~y:0 ~width:p.width ~height:p.height v

let plane_to_array p =
  Array.init (p.width * p.height) (fun i -> get16 p.data (2 * i))

let blit_row ~src ~src_x ~src_y ~dst ~dst_x ~dst_y ~len =
  if
    len < 0 || src_x < 0 || src_x + len > src.width || src_y < 0
    || src_y >= src.height || dst_x < 0
    || dst_x + len > dst.width
    || dst_y < 0 || dst_y >= dst.height
  then invalid_arg "Image.blit_row: row out of bounds";
  let so = (src_y * src.width) + src_x and dof = (dst_y * dst.width) + dst_x in
  Bytes.unsafe_blit src.data (2 * so) dst.data (2 * dof) (2 * len)

let create ~width ~height ~components ?(bit_depth = 8) () =
  if components <= 0 then invalid_arg "Image.create: components";
  if bit_depth < 1 || bit_depth > 16 then invalid_arg "Image.create: bit_depth";
  {
    planes = Array.init components (fun _ -> create_plane ~width ~height);
    bit_depth;
  }

let width t = t.planes.(0).width
let height t = t.planes.(0).height
let components t = Array.length t.planes
let max_sample t = (1 lsl t.bit_depth) - 1

let same_shape a b =
  width a = width b && height a = height b && components a = components b

let equal a b =
  same_shape a b && a.bit_depth = b.bit_depth
  && Array.for_all2
       (fun p q ->
         p.width = q.width && p.height = q.height && Bytes.equal p.data q.data)
       a.planes b.planes

let mse a b =
  if not (same_shape a b) then invalid_arg "Image.mse: shape mismatch";
  let total = ref 0.0 in
  let samples = width a * height a * components a in
  for c = 0 to components a - 1 do
    let p = a.planes.(c) and q = b.planes.(c) in
    if p.width <> q.width || p.height <> q.height then
      invalid_arg "Image.mse: shape mismatch";
    for i = 0 to (p.width * p.height) - 1 do
      let d = float_of_int (get16 p.data (2 * i) - get16 q.data (2 * i)) in
      total := !total +. (d *. d)
    done
  done;
  !total /. float_of_int samples

let psnr a b =
  let e = mse a b in
  if e = 0.0 then infinity
  else
    let peak = float_of_int (max_sample a) in
    10.0 *. log10 (peak *. peak /. e)

(* -- Synthetic generators ----------------------------------------- *)

let fill t f =
  Array.iteri
    (fun c p ->
      for y = 0 to p.height - 1 do
        for x = 0 to p.width - 1 do
          plane_set p ~x ~y (f ~c ~x ~y land max_sample t)
        done
      done)
    t.planes;
  t

let gradient ~width ~height ~components =
  let t = create ~width ~height ~components () in
  fill t (fun ~c ~x ~y ->
      ((x * 255 / Stdlib.max 1 (width - 1))
      + (y * 255 / Stdlib.max 1 (height - 1))
      + (c * 37))
      / 2)

let checkerboard ~width ~height ~components =
  let t = create ~width ~height ~components () in
  fill t (fun ~c ~x ~y -> if (x / 8 + y / 8 + c) mod 2 = 0 then 32 else 224)

(* Numerical Recipes LCG: deterministic across platforms. *)
let lcg state =
  state := (!state * 1664525 + 1013904223) land 0x3FFFFFFF;
  !state

let noise ~width ~height ~components ~seed =
  let state = ref (seed land 0x3FFFFFFF) in
  let t = create ~width ~height ~components () in
  fill t (fun ~c:_ ~x:_ ~y:_ -> lcg state lsr 8)

let smooth ~width ~height ~components ~seed =
  let state = ref (seed land 0x3FFFFFFF) in
  let rand_float () = float_of_int (lcg state) /. 1073741824.0 in
  let waves =
    Array.init 6 (fun _ ->
        let fx = rand_float () *. 6.0 /. float_of_int width in
        let fy = rand_float () *. 6.0 /. float_of_int height in
        let phase = rand_float () *. 6.2831853 in
        let amp = 20.0 +. (rand_float () *. 25.0) in
        (fx, fy, phase, amp))
  in
  let t = create ~width ~height ~components () in
  fill t (fun ~c ~x ~y ->
      let v = ref 128.0 in
      Array.iteri
        (fun i (fx, fy, phase, amp) ->
          let shift = float_of_int (c * (i + 1)) *. 0.7 in
          v :=
            !v
            +. amp
               *. sin
                    ((fx *. float_of_int x *. 6.2831853)
                    +. (fy *. float_of_int y *. 6.2831853)
                    +. phase +. shift))
        waves;
      let clamped = Stdlib.max 0.0 (Stdlib.min 255.0 !v) in
      int_of_float clamped)

(* -- PNM ------------------------------------------------------------ *)

let to_pnm t =
  if t.bit_depth <> 8 then invalid_arg "Image.to_pnm: bit depth must be 8";
  let w = width t and h = height t and n = components t in
  let magic =
    match n with
    | 1 -> "P5"
    | 3 -> "P6"
    | n -> invalid_arg (Printf.sprintf "Image.to_pnm: %d components" n)
  in
  (* Interleaved raster: sample [i] of component [c] at byte [i*n + c]. *)
  let raster = Bytes.create (w * h * n) in
  Array.iteri
    (fun c p ->
      for i = 0 to (w * h) - 1 do
        Bytes.unsafe_set raster ((i * n) + c)
          (Char.unsafe_chr (get16 p.data (2 * i) land 0xFF))
      done)
    t.planes;
  Printf.sprintf "%s\n%d %d\n255\n" magic w h ^ Bytes.unsafe_to_string raster

let of_pnm s =
  let pos = ref 0 in
  let len = String.length s in
  let fail msg = failwith ("Image.of_pnm: " ^ msg) in
  let peek () = if !pos >= len then fail "truncated header" else s.[!pos] in
  let skip_ws_and_comments () =
    let rec loop () =
      if !pos < len then
        match s.[!pos] with
        | ' ' | '\t' | '\n' | '\r' ->
          incr pos;
          loop ()
        | '#' ->
          while !pos < len && s.[!pos] <> '\n' do
            incr pos
          done;
          loop ()
        | _ -> ()
    in
    loop ()
  in
  let read_token () =
    skip_ws_and_comments ();
    let start = !pos in
    while !pos < len && not (List.mem s.[!pos] [ ' '; '\t'; '\n'; '\r' ]) do
      incr pos
    done;
    if !pos = start then fail "expected token";
    String.sub s start (!pos - start)
  in
  let read_int () =
    match int_of_string_opt (read_token ()) with
    | Some v -> v
    | None -> fail "expected integer"
  in
  let magic = read_token () in
  let components =
    match magic with "P5" -> 1 | "P6" -> 3 | _ -> fail "bad magic"
  in
  let w = read_int () in
  let h = read_int () in
  let maxval = read_int () in
  if maxval <> 255 then fail "only maxval 255 supported";
  (* Exactly one whitespace byte separates header and raster. *)
  (match peek () with
  | ' ' | '\t' | '\n' | '\r' -> incr pos
  | _ -> fail "missing raster separator");
  if w <= 0 || h <= 0 then fail "bad dimensions";
  (* [w * h * components] could overflow; divide the remainder instead. *)
  if (len - !pos) / components / w < h then fail "truncated raster";
  let t = create ~width:w ~height:h ~components () in
  let base = !pos in
  Array.iteri
    (fun c p ->
      for i = 0 to (w * h) - 1 do
        set16 p.data (2 * i) (Char.code s.[base + (i * components) + c])
      done)
    t.planes;
  t
