type layout = {
  l_data : string;
  tile_end : int array;
      (* end offset of every well-formed tile segment, stream order *)
}

type t = {
  data : string;
  dlv : Faults.Ingest.delivery;
  tile_landed : int array;  (* per stream-order tile; max_int = never *)
  complete : int;  (* instant all bytes landed; max_int = never *)
  prefix_steps : (int * int) array;
      (* (instant, contiguous prefix length), instants increasing *)
  received : int;  (* distinct payload bytes that ever arrive *)
}

(* The framing units [Jpeg2000.Stream] would consume from [data], read
   once over the whole string: the preamble, then tile segments until
   the announced count, the first truncated unit or the first damaged
   one. *)
let layout data =
  let module C = Jpeg2000.Codestream in
  let rec tiles header left pos acc =
    if left = 0 then acc
    else
      match C.read_tile ~header data ~pos with
      | C.Unit_ready (_, pos') -> tiles header (left - 1) pos' (pos' :: acc)
      | C.Unit_truncated _ | C.Unit_error _ -> acc
  in
  let ends =
    match C.read_preamble data ~pos:0 with
    | C.Unit_ready ((header, ntiles), pos) -> tiles header ntiles pos []
    | C.Unit_truncated _ | C.Unit_error _ -> []
  in
  { l_data = data; tile_end = Array.of_list (List.rev ends) }

let analyse_layout ~seed spec ~start_ps l =
  let data = l.l_data in
  let dlv = Faults.Ingest.schedule ~seed spec ~start_ps data in
  let len = String.length data in
  let chunk = spec.Faults.Ingest.chunk_bytes in
  let nchunks = (len + chunk - 1) / chunk in
  let got = Array.make (Stdlib.max 1 nchunks) false in
  let frontier = ref 0 (* first chunk index not yet received *) in
  let tile_landed = Array.make (Array.length l.tile_end) max_int in
  let ready = ref 0 (* tiles whose segment lies inside the prefix *) in
  let complete = ref max_int in
  let steps = ref [ (min_int, 0) ] in
  let received = ref 0 in
  List.iter
    (fun (c : Faults.Ingest.chunk) ->
      let i = c.Faults.Ingest.c_offset / chunk in
      if not got.(i) then begin
        got.(i) <- true;
        received := !received + String.length c.Faults.Ingest.c_bytes;
        let from = !frontier in
        while !frontier < nchunks && got.(!frontier) do incr frontier done;
        if !frontier > from then begin
          (* the contiguous prefix grew: every tile segment it now
             covers has landed *)
          let hi = Stdlib.min len (!frontier * chunk) in
          let at = c.Faults.Ingest.c_arrival_ps in
          steps := (at, hi) :: !steps;
          while !ready < Array.length l.tile_end && l.tile_end.(!ready) <= hi do
            tile_landed.(!ready) <- at;
            incr ready
          done;
          if hi = len && !complete = max_int then complete := at
        end
      end)
    dlv.Faults.Ingest.chunks;
  {
    data;
    dlv;
    tile_landed;
    complete = !complete;
    prefix_steps = Array.of_list (List.rev !steps);
    received = !received;
  }

let analyse ~seed spec ~start_ps data =
  analyse_layout ~seed spec ~start_ps (layout data)

let delivery t = t.dlv

let tile_landed_ps t i =
  if i < 0 || i >= Array.length t.tile_landed then max_int
  else t.tile_landed.(i)

let complete_ps t = t.complete

let prefix_at t instant =
  (* largest recorded prefix whose instant is <= [instant] *)
  let best = ref 0 in
  Array.iter
    (fun (ts, n) -> if ts <= instant && n > !best then best := n)
    t.prefix_steps;
  String.sub t.data 0 !best

let bytes_received t = t.received
