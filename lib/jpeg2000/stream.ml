(* Resumable chunk-fed parsing over the incremental framing units of
   [Codestream]. The machine buffers every byte it is fed and keeps a
   parse cursor; after each feed it consumes units while the buffered
   bytes complete them. Because a unit parse depends only on the
   bytes before the cursor — never on how they arrived — the machine
   is chunk-size invariant by construction. *)

type phase =
  | Preamble
  | Tiles of { header : Codestream.header; ntiles : int }
  | Complete of { header : Codestream.header; ntiles : int }
  | Corrupt of Codestream.error

type t = {
  buf : Buffer.t;
  mutable pos : int;  (* parse cursor into [buf] *)
  mutable phase : phase;
  mutable tiles_rev : Codestream.tile_segment list;
  mutable ready : int;
  mutable tiles_cache : Codestream.tile_segment array option;
  mutable finished : bool;
}

type status =
  | Need_more
  | Segment_ready
  | Done
  | Corrupt of Codestream.error

let create () =
  {
    buf = Buffer.create 4096;
    pos = 0;
    phase = Preamble;
    tiles_rev = [];
    ready = 0;
    tiles_cache = None;
    finished = false;
  }

(* Consume framing units while the buffer completes them; returns how
   many new units landed. *)
let advance t =
  let data = Buffer.contents t.buf in
  let landed = ref 0 in
  let rec loop () =
    match t.phase with
    | Corrupt _ | Complete _ -> ()
    | Preamble -> (
      match Codestream.read_preamble data ~pos:t.pos with
      | Codestream.Unit_truncated _ -> ()
      | Codestream.Unit_error e -> t.phase <- Corrupt e
      | Codestream.Unit_ready ((header, ntiles), pos') ->
        t.pos <- pos';
        incr landed;
        t.phase <-
          (if ntiles = 0 then Complete { header; ntiles }
           else Tiles { header; ntiles });
        loop ())
    | Tiles { header; ntiles } -> (
      match Codestream.read_tile ~header data ~pos:t.pos with
      | Codestream.Unit_truncated _ -> ()
      | Codestream.Unit_error e -> t.phase <- Corrupt e
      | Codestream.Unit_ready (tile, pos') ->
        t.pos <- pos';
        t.tiles_rev <- tile :: t.tiles_rev;
        t.ready <- t.ready + 1;
        t.tiles_cache <- None;
        incr landed;
        if t.ready = ntiles then t.phase <- Complete { header; ntiles };
        loop ())
  in
  loop ();
  !landed

let trailing t = Buffer.length t.buf - t.pos

let status t : status =
  match t.phase with
  | Corrupt e -> Corrupt e
  | Complete _ ->
    if trailing t = 0 then Done
    else Corrupt (Codestream.Trailing (trailing t))
  | Preamble | Tiles _ ->
    if not t.finished then Need_more
    else if Buffer.length t.buf < 4 then Corrupt Codestream.Bad_magic
    else begin
      (* At end-of-input a pending truncation is definitive; re-run
         the unit attempt to recover the exact offset [parse_result]
         would report. *)
      let data = Buffer.contents t.buf in
      let step_err : _ Codestream.step -> status = function
        | Codestream.Unit_truncated off ->
          Corrupt (Codestream.Truncated off)
        | Codestream.Unit_error e -> Corrupt e
        | Codestream.Unit_ready _ ->
          assert false (* [advance] would have consumed it *)
      in
      match t.phase with
      | Preamble -> step_err (Codestream.read_preamble data ~pos:t.pos)
      | Tiles { header; _ } ->
        step_err (Codestream.read_tile ~header data ~pos:t.pos)
      | Complete _ | Corrupt _ -> assert false
    end

let feed t chunk =
  if t.finished then invalid_arg "Stream.feed: stream already finished";
  Buffer.add_string t.buf chunk;
  let landed = advance t in
  match status t with
  | (Done | Corrupt _) as s -> s
  | Need_more | Segment_ready -> if landed > 0 then Segment_ready else Need_more

let header t =
  match t.phase with
  | Preamble | Corrupt _ -> None
  | Tiles { header; _ } | Complete { header; _ } -> Some header

let tile_count t =
  match t.phase with
  | Preamble | Corrupt _ -> None
  | Tiles { ntiles; _ } | Complete { ntiles; _ } -> Some ntiles

let tiles_ready t = t.ready

let tiles_array t =
  match t.tiles_cache with
  | Some a -> a
  | None ->
    let a = Array.of_list (List.rev t.tiles_rev) in
    t.tiles_cache <- Some a;
    a

let tile t i =
  if i < 0 || i >= t.ready then invalid_arg "Stream.tile: index out of range";
  (tiles_array t).(i)

let bytes_fed t = Buffer.length t.buf
let received t = Buffer.contents t.buf

(* At end-of-input [status] is [Done] iff the bytes form a
   well-formed codestream, otherwise [Corrupt] with exactly the error,
   [Truncated] offset included, that [Codestream.parse_result]
   reports for the same bytes. *)
let parse_result t =
  t.finished <- true;
  match status t with
  | Done -> (
    match t.phase with
    | Complete { header; _ } ->
      Ok { Codestream.header; tiles = List.rev t.tiles_rev }
    | Preamble | Tiles _ | Corrupt _ -> assert false)
  | Corrupt e -> Error e
  | Need_more | Segment_ready -> assert false
