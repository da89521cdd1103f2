(* Per-pass cost in the emitted stream: a u32 length prefix plus the
   codeword bytes (see Codestream.emit_band). *)
let pass_cost pass = 4 + String.length pass

let map_blocks stream f =
  {
    stream with
    Codestream.tiles =
      List.map
        (fun tile ->
          {
            tile with
            Codestream.comps =
              Array.map
                (List.map (fun seg ->
                     {
                       seg with
                       Codestream.seg_blocks =
                         List.map f seg.Codestream.seg_blocks;
                     }))
                tile.Codestream.comps;
          })
        stream.Codestream.tiles;
  }

let all_blocks stream =
  List.concat_map
    (fun tile ->
      Array.to_list tile.Codestream.comps
      |> List.concat_map (List.concat_map (fun seg -> seg.Codestream.seg_blocks)))
    stream.Codestream.tiles

let parse data =
  match Codestream.parse_result data with
  | Ok stream -> stream
  | Error e -> failwith ("Rate: " ^ Codestream.error_message e)

let strip_passes stream =
  map_blocks stream (fun blk -> { blk with Codestream.blk_passes = [] })

let minimum_bytes data =
  String.length (Codestream.emit (strip_passes (parse data)))

let shape ~max_bytes data =
  if max_bytes <= 0 then invalid_arg "Rate.shape: max_bytes";
  if String.length data <= max_bytes then data
  else begin
    let stream = parse data in
    let base = String.length (Codestream.emit (strip_passes stream)) in
    (* Grant passes in rounds across all blocks while the budget
       lasts. Blocks are visited in stream order, so the allocation
       is deterministic. *)
    let blocks = all_blocks stream in
    let budget = ref (max_bytes - base) in
    let granted = Hashtbl.create 64 in
    let deepest =
      List.fold_left
        (fun acc blk -> Stdlib.max acc (List.length blk.Codestream.blk_passes))
        0 blocks
    in
    List.iteri (fun i _ -> Hashtbl.replace granted i 0) blocks;
    (try
       for round = 0 to deepest - 1 do
         List.iteri
           (fun i blk ->
             match List.nth_opt blk.Codestream.blk_passes round with
             | None -> ()
             | Some pass ->
               let cost = pass_cost pass in
               if cost <= !budget then begin
                 budget := !budget - cost;
                 Hashtbl.replace granted i (round + 1)
               end
               else raise Exit)
           blocks
       done
     with Exit -> ());
    let index = ref (-1) in
    let shaped =
      map_blocks stream (fun blk ->
          incr index;
          let keep = Option.value (Hashtbl.find_opt granted !index) ~default:0 in
          {
            blk with
            Codestream.blk_passes =
              List.filteri (fun i _ -> i < keep) blk.Codestream.blk_passes;
          })
    in
    Codestream.emit shaped
  end
