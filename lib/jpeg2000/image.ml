type plane = { width : int; height : int; data : int array }

type t = { planes : plane array; bit_depth : int }

let create_plane ~width ~height =
  if width <= 0 || height <= 0 then invalid_arg "Image.create_plane: size";
  { width; height; data = Array.make (width * height) 0 }

let plane_get p ~x ~y = p.data.((y * p.width) + x)
let plane_set p ~x ~y v = p.data.((y * p.width) + x) <- v

let blit_row ~src ~src_x ~src_y ~dst ~dst_x ~dst_y ~len =
  if
    len < 0 || src_x < 0 || src_x + len > src.width || src_y < 0
    || src_y >= src.height || dst_x < 0
    || dst_x + len > dst.width
    || dst_y < 0 || dst_y >= dst.height
  then invalid_arg "Image.blit_row: row out of bounds";
  (* Typed on [int array] and unchecked past the single check above:
     plain stores, not the [caml_modify] a generic [Array.blit] pays
     into a major-heap plane. *)
  let s : int array = src.data and d : int array = dst.data in
  let so = (src_y * src.width) + src_x and dof = (dst_y * dst.width) + dst_x in
  for i = 0 to len - 1 do
    Array.unsafe_set d (dof + i) (Array.unsafe_get s (so + i))
  done

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
  && Array.for_all2 (fun p q -> p.data = q.data) a.planes b.planes

let mse a b =
  if not (same_shape a b) then invalid_arg "Image.mse: shape mismatch";
  let total = ref 0.0 in
  let samples = width a * height a * components a in
  Array.iteri
    (fun c p ->
      let q = b.planes.(c) in
      Array.iteri
        (fun i v ->
          let d = float_of_int (v - q.data.(i)) in
          total := !total +. (d *. d))
        p.data)
    a.planes;
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

let checkerboard ~width ~height ~components ?(square = 8) () =
  if square <= 0 then invalid_arg "Image.checkerboard: square";
  let t = create ~width ~height ~components () in
  fill t (fun ~c ~x ~y ->
      if (x / square + y / square + c) mod 2 = 0 then 32 else 224)

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
  let w = width t and h = height t in
  let buffer = Buffer.create ((w * h * components t) + 32) in
  (match components t with
  | 1 -> Buffer.add_string buffer (Printf.sprintf "P5\n%d %d\n255\n" w h)
  | 3 -> Buffer.add_string buffer (Printf.sprintf "P6\n%d %d\n255\n" w h)
  | n -> invalid_arg (Printf.sprintf "Image.to_pnm: %d components" n));
  for y = 0 to h - 1 do
    for x = 0 to w - 1 do
      Array.iter
        (fun p -> Buffer.add_char buffer (Char.chr (plane_get p ~x ~y land 0xFF)))
        t.planes
    done
  done;
  Buffer.contents buffer

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
  if len - !pos < w * h * components then fail "truncated raster";
  let t = create ~width:w ~height:h ~components () in
  for y = 0 to h - 1 do
    for x = 0 to w - 1 do
      Array.iter
        (fun p ->
          plane_set p ~x ~y (Char.code s.[!pos]);
          incr pos)
        t.planes
    done
  done;
  t

let save_pnm t path =
  let oc = open_out_bin path in
  (try output_string oc (to_pnm t)
   with exn ->
     close_out oc;
     raise exn);
  close_out oc

let load_pnm path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let data = really_input_string ic n in
  close_in ic;
  of_pnm data
