(* Deterministic hierarchical profiler over the span stream.

   Folds [Event.Complete] spans into one cost tree per track: nesting
   is recovered from the (virtual-time) intervals themselves, same-name
   siblings merge into one node, and every aggregate is integer
   picoseconds of simulated time — so the tree, its JSON export and the
   collapsed-stack text are byte-identical across reruns and across
   [--jobs], because worker domains carry no sink and every span is
   emitted from the coordinating domain at deterministic virtual
   timestamps. Wall-clock never enters the tree; callers that measure
   real time (the CLI's overhead ratio) report it next to the tree, not
   inside it. *)

type node = {
  name : string;
  self_ps : int;
  total_ps : int;
  count : int;
  children : node list; (* sorted by name *)
}

type t = { roots : node list (* one per track, sorted by track name *) }

(* -- building --------------------------------------------------------- *)

type builder = {
  b_name : string;
  mutable b_total : int;
  mutable b_count : int;
  b_kids : (string, builder) Hashtbl.t;
  mutable b_order : string list; (* insertion order; sorted at freeze *)
}

let builder name =
  { b_name = name; b_total = 0; b_count = 0; b_kids = Hashtbl.create 4; b_order = [] }

let child_of b name =
  match Hashtbl.find_opt b.b_kids name with
  | Some c -> c
  | None ->
    let c = builder name in
    Hashtbl.replace b.b_kids name c;
    b.b_order <- name :: b.b_order;
    c

let rec freeze b =
  let children =
    List.sort String.compare b.b_order
    |> List.map (fun name -> freeze (Hashtbl.find b.b_kids name))
  in
  let kids_total = List.fold_left (fun acc c -> acc + c.total_ps) 0 children in
  let total = if b.b_count = 0 then kids_total else b.b_total in
  {
    name = b.b_name;
    (* [self = total - Σ children] by construction, so the tree
       invariant holds exactly on every node, including when malformed
       (overlapping-sibling) input would make self negative. *)
    self_ps = total - kids_total;
    total_ps = total;
    count = b.b_count;
    children;
  }

(* Deterministic span order inside a track: outermost first. Start
   ascending, then duration descending (a span that starts with its
   parent nests inside it), then name as the final tie-break. *)
let span_order (a : Event.t) (b : Event.t) =
  let c = compare a.Event.ts_ps b.Event.ts_ps in
  if c <> 0 then c
  else
    let c = compare (Event.duration_ps b) (Event.duration_ps a) in
    if c <> 0 then c else String.compare a.Event.name b.Event.name

let of_events events =
  let by_track = Hashtbl.create 8 in
  let track_order = ref [] in
  List.iter
    (fun (ev : Event.t) ->
      match ev.Event.phase with
      | Event.Complete _ ->
        let bucket =
          match Hashtbl.find_opt by_track ev.Event.track with
          | Some b -> b
          | None ->
            let b = ref [] in
            Hashtbl.replace by_track ev.Event.track b;
            track_order := ev.Event.track :: !track_order;
            b
        in
        bucket := ev :: !bucket
      | Event.Instant | Event.Counter _ -> ())
    events;
  let roots =
    List.sort String.compare !track_order
    |> List.map (fun track ->
           let spans =
             List.sort span_order (List.rev !(Hashtbl.find by_track track))
           in
           let root = builder track in
           (* Stack of (start, end, node); the root frame fits
              everything. A span nests under the innermost frame that
              fully contains it; partial overlap (malformed input)
              degrades to siblinghood rather than raising. *)
           let stack = ref [ (min_int, max_int, root) ] in
           List.iter
             (fun (ev : Event.t) ->
               let s = ev.Event.ts_ps in
               let e = s + Event.duration_ps ev in
               let rec unwind () =
                 match !stack with
                 | (fs, fe, _) :: rest when not (s >= fs && e <= fe) ->
                   stack := rest;
                   unwind ()
                 | _ -> ()
               in
               unwind ();
               let _, _, top =
                 match !stack with [] -> assert false | f :: _ -> f
               in
               let child = child_of top ev.Event.name in
               child.b_total <- child.b_total + Event.duration_ps ev;
               child.b_count <- child.b_count + 1;
               stack := (s, e, child) :: !stack)
             spans;
           freeze root)
  in
  { roots }

let add_synthetic t ~track leaves =
  let root = builder track in
  List.iter
    (fun (path, self_ps, count) ->
      match path with
      | [] -> ()
      | _ ->
        let leaf =
          List.fold_left (fun node name -> child_of node name) root path
        in
        leaf.b_total <- leaf.b_total + self_ps;
        leaf.b_count <- leaf.b_count + count)
    leaves;
  let roots =
    List.sort
      (fun a b -> String.compare a.name b.name)
      (freeze root :: List.filter (fun r -> r.name <> track) t.roots)
  in
  { roots }

(* -- queries ---------------------------------------------------------- *)

let tracks t = List.map (fun r -> r.name) t.roots

let total_ps t = List.fold_left (fun acc r -> acc + r.total_ps) 0 t.roots

let find t path =
  match String.split_on_char ';' path with
  | [] -> None
  | root_name :: rest ->
    let rec descend node = function
      | [] -> Some node
      | name :: rest -> (
        match List.find_opt (fun c -> c.name = name) node.children with
        | Some c -> descend c rest
        | None -> None)
    in
    List.find_opt (fun r -> r.name = root_name) t.roots
    |> Fun.flip Option.bind (fun r -> descend r rest)

let fold f acc t =
  let rec walk acc path node =
    let path = path ^ (if path = "" then "" else ";") ^ node.name in
    let acc = f acc path node in
    List.fold_left (fun acc c -> walk acc path c) acc node.children
  in
  List.fold_left (fun acc r -> walk acc "" r) acc t.roots

let top_self ?(n = 3) t =
  fold (fun acc path node -> (path, node.self_ps) :: acc) [] t
  |> List.filter (fun (_, self) -> self > 0)
  |> List.sort (fun (pa, sa) (pb, sb) ->
         let c = compare sb sa in
         if c <> 0 then c else String.compare pa pb)
  |> List.filteri (fun i _ -> i < n)

let rec check_node node =
  let kids_total =
    List.fold_left (fun acc c -> acc + c.total_ps) 0 node.children
  in
  node.total_ps = node.self_ps + kids_total && List.for_all check_node node.children

let invariant t = List.for_all check_node t.roots

(* -- exports ---------------------------------------------------------- *)

let collapsed t =
  let lines =
    fold
      (fun acc path node ->
        if node.self_ps > 0 then
          Printf.sprintf "%s %d" path node.self_ps :: acc
        else acc)
      [] t
  in
  String.concat "\n" (List.sort String.compare lines) ^ "\n"

let rec node_to_json node =
  Json.Obj
    [
      ("name", Json.Str node.name);
      ("self_ps", Json.Int node.self_ps);
      ("total_ps", Json.Int node.total_ps);
      ("count", Json.Int node.count);
      ("children", Json.List (List.map node_to_json node.children));
    ]

let to_json t = Json.Obj [ ("tracks", Json.List (List.map node_to_json t.roots)) ]
