(* Render a collected event list as a VCD dump: one wire per track
   carrying that track's span depth over simulated time, so a trace
   can be eyeballed next to the RTL waveforms in the same viewer. *)

let depth_width = 8

(* VCD identifier codes: printable ASCII 33..126, multi-char beyond. *)
let id_of_index index =
  let base = 94 in
  let rec build i acc =
    let c = Char.chr (33 + (i mod base)) in
    let acc = String.make 1 c ^ acc in
    if i < base then acc else build ((i / base) - 1) acc
  in
  build index ""

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' -> c
      | _ -> '_')
    name

let binary_of_value ~width v =
  let bits = Bytes.make width '0' in
  for i = 0 to width - 1 do
    if (v lsr i) land 1 = 1 then Bytes.set bits (width - 1 - i) '1'
  done;
  Bytes.to_string bits

(* Per-track depth deltas: +1 at span start, -1 at span end. Instants
   don't change depth. *)
let deltas_of events =
  List.concat_map
    (fun (ev : Event.t) ->
      match ev.Event.phase with
      | Event.Instant | Event.Counter _ -> []
      | Event.Complete dur ->
        [
          (ev.Event.ts_ps, ev.Event.track, 1);
          (ev.Event.ts_ps + dur, ev.Event.track, -1);
        ])
    events
  (* Ends sort before starts at the same instant so back-to-back spans
     render as depth 1 -> 1, not 1 -> 2 -> 1. *)
  |> List.sort (fun (ta, _, da) (tb, _, db) ->
         if ta <> tb then compare ta tb else compare da db)

let document ~version ~scope ~vars ~changes =
  let vars = Array.of_list vars in
  let buf = Buffer.create 1024 in
  let line fmt =
    Format.kasprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt
  in
  line "$date";
  line "  (simulation)";
  line "$end";
  line "$version";
  line "  %s" version;
  line "$end";
  line "$timescale 1ps $end";
  line "$scope module %s $end" scope;
  Array.iteri
    (fun i (name, width, _) ->
      line "$var wire %d %s %s $end" width (id_of_index i) name)
    vars;
  line "$upscope $end";
  line "$enddefinitions $end";
  line "$dumpvars";
  Array.iteri
    (fun i (_, width, initial) ->
      line "b%s %s" (binary_of_value ~width initial) (id_of_index i))
    vars;
  line "$end";
  let last_time = ref None in
  List.iter
    (fun (ts, i, value) ->
      if !last_time <> Some ts then begin
        line "#%d" ts;
        last_time := Some ts
      end;
      let _, width, _ = vars.(i) in
      line "b%s %s" (binary_of_value ~width value) (id_of_index i))
    changes;
  Buffer.contents buf

let render events =
  let tracks = Event.tracks events in
  let index = Hashtbl.create 16 in
  List.iteri (fun i track -> Hashtbl.replace index track i) tracks;
  let depths = Hashtbl.create 16 in
  let changes =
    List.fold_left
      (fun acc (ts, track, delta) ->
        let prev = Option.value ~default:0 (Hashtbl.find_opt depths track) in
        let d = Stdlib.max 0 (prev + delta) in
        Hashtbl.replace depths track d;
        (ts, Hashtbl.find index track, Stdlib.min d 255) :: acc)
      [] (deltas_of events)
    |> List.rev
  in
  document ~version:"osss-jpeg2000 telemetry span depth" ~scope:"telemetry"
    ~vars:(List.map (fun track -> (sanitize track, depth_width, 0)) tracks)
    ~changes

let save path events =
  let oc = open_out path in
  output_string oc (render events);
  close_out oc
