module Names = Set.Make (String)

(* -- call summaries -------------------------------------------------- *)

type summary = {
  su_uses : Names.t;  (** module-level variables/ports read *)
  su_arr_uses : Names.t;
  su_defs : Names.t;  (** module-level variables/ports written *)
  su_arr_defs : Names.t;
}

let empty_summary =
  {
    su_uses = Names.empty;
    su_arr_uses = Names.empty;
    su_defs = Names.empty;
    su_arr_defs = Names.empty;
  }

let union_summary a b =
  {
    su_uses = Names.union a.su_uses b.su_uses;
    su_arr_uses = Names.union a.su_arr_uses b.su_arr_uses;
    su_defs = Names.union a.su_defs b.su_defs;
    su_arr_defs = Names.union a.su_arr_defs b.su_arr_defs;
  }

(* Transitive module-level def/use sets per subprogram. Call cycles
   (rejected by the E009 lint) are cut with a visiting set, so the
   computation always terminates. *)
let summaries m =
  let tbl : (string, summary) Hashtbl.t = Hashtbl.create 8 in
  let find_sub f = List.find_opt (fun s -> s.Hir.s_name = f) m.Hir.m_subprograms in
  let rec summary_of visiting s =
    match Hashtbl.find_opt tbl s.Hir.s_name with
    | Some su -> su
    | None when Names.mem s.Hir.s_name visiting -> empty_summary
    | None ->
      let visiting = Names.add s.Hir.s_name visiting in
      let local =
        Names.of_list (List.map fst s.Hir.s_params @ List.map fst s.Hir.s_locals)
      in
      let acc = ref empty_summary in
      let add f = acc := f !acc in
      let use n =
        if not (Names.mem n local) then
          add (fun a -> { a with su_uses = Names.add n a.su_uses })
      in
      let def n =
        if not (Names.mem n local) then
          add (fun a -> { a with su_defs = Names.add n a.su_defs })
      in
      let callee f =
        match find_sub f with
        | Some sub -> add (fun a -> union_summary a (summary_of visiting sub))
        | None -> ()
      in
      let rec expr = function
        | Hir.Const _ -> ()
        | Hir.Var n -> use n
        | Hir.Arr (a, i) ->
          add (fun s -> { s with su_arr_uses = Names.add a s.su_arr_uses });
          expr i
        | Hir.Bin (_, a, b) ->
          expr a;
          expr b
        | Hir.Un (_, e) -> expr e
        | Hir.Call (f, args) ->
          callee f;
          List.iter expr args
      in
      let rec stmt = function
        | Hir.Assign (Hir.Lv_var n, e) ->
          def n;
          expr e
        | Hir.Assign (Hir.Lv_arr (a, i), e) ->
          add (fun s -> { s with su_arr_defs = Names.add a s.su_arr_defs });
          expr i;
          expr e
        | Hir.If (c, a, b) ->
          expr c;
          List.iter stmt a;
          List.iter stmt b
        | Hir.While (c, body) ->
          expr c;
          List.iter stmt body
        | Hir.For (_, _, _, body) -> List.iter stmt body
        | Hir.Wait -> ()
        | Hir.Call_p (p, args) ->
          callee p;
          List.iter expr args
        | Hir.Return (Some e) -> expr e
        | Hir.Return None -> ()
      in
      List.iter stmt s.Hir.s_body;
      Hashtbl.replace tbl s.Hir.s_name !acc;
      !acc
  in
  List.iter (fun s -> ignore (summary_of Names.empty s)) m.Hir.m_subprograms;
  fun f -> Option.value (Hashtbl.find_opt tbl f) ~default:empty_summary

(* -- control-flow graphs --------------------------------------------- *)

type node = {
  id : int;
  path : string;
  stmt : Hir.stmt option;  (** [None] for the synthetic entry/exit *)
  defs : Names.t;
  uses : Names.t;
  array_defs : Names.t;
  array_uses : Names.t;
  mutable succ : int list;
  mutable pred : int list;
}

type t = { nodes : node array; entry : int; exit_ : int }

let const_value = function Hir.Const n -> Some n | _ -> None

type builder = { mutable rev_nodes : node list; mutable count : int }

let add b ~path ?stmt ?(defs = Names.empty) ?(uses = Names.empty)
    ?(array_defs = Names.empty) ?(array_uses = Names.empty) () =
  let n =
    {
      id = b.count;
      path;
      stmt;
      defs;
      uses;
      array_defs;
      array_uses;
      succ = [];
      pred = [];
    }
  in
  b.rev_nodes <- n :: b.rev_nodes;
  b.count <- b.count + 1;
  n

let connect a b =
  if not (List.mem b.id a.succ) then begin
    a.succ <- a.succ @ [ b.id ];
    b.pred <- b.pred @ [ a.id ]
  end

let expr_refs summary e =
  let vars = ref Names.empty
  and arrays = ref Names.empty
  and defs = ref Names.empty
  and arr_defs = ref Names.empty in
  let rec go = function
    | Hir.Const _ -> ()
    | Hir.Var n -> vars := Names.add n !vars
    | Hir.Arr (a, i) ->
      arrays := Names.add a !arrays;
      go i
    | Hir.Bin (_, a, b) ->
      go a;
      go b
    | Hir.Un (_, e) -> go e
    | Hir.Call (f, args) ->
      let su = summary f in
      vars := Names.union su.su_uses !vars;
      arrays := Names.union su.su_arr_uses !arrays;
      defs := Names.union su.su_defs !defs;
      arr_defs := Names.union su.su_arr_defs !arr_defs;
      List.iter go args
  in
  go e;
  (!vars, !arrays, !defs, !arr_defs)

let build ~name ~loops summary stmts =
  let b = { rev_nodes = []; count = 0 } in
  let entry = add b ~path:(name ^ "/entry") () in
  let returns = ref [] in
  (* [preds] are the dangling nodes whose control flow falls into the
     next statement; a statement may leave several (the arms of an
     [If]). An empty [preds] means the statement is unreachable — it
     is still built, so the reachability pass can report it. *)
  let rec seq prefix preds stmts =
    List.fold_left
      (fun (preds, i) s -> (stmt (Printf.sprintf "%s/%d" prefix i) preds s, i + 1))
      (preds, 0) stmts
    |> fst
  and stmt path preds s =
    let node ?stmt ?defs ?uses ?array_defs ?array_uses () =
      let n = add b ~path ?stmt ?defs ?uses ?array_defs ?array_uses () in
      List.iter (fun p -> connect p n) preds;
      n
    in
    let refs e = expr_refs summary e in
    match s with
    | Hir.Wait -> [ node ~stmt:s () ]
    | Hir.Assign (lv, e) ->
      let uses, array_uses, d0, a0 = refs e in
      let uses, array_uses, defs, array_defs =
        match lv with
        | Hir.Lv_var n -> (uses, array_uses, Names.add n d0, a0)
        | Hir.Lv_arr (a, i) ->
          let iu, iau, id, iad = refs i in
          ( Names.union uses iu,
            Names.union array_uses iau,
            Names.union d0 id,
            Names.add a (Names.union a0 iad) )
      in
      [ node ~stmt:s ~defs ~uses ~array_defs ~array_uses () ]
    | Hir.Call_p (p, args) ->
      let su = summary p in
      let uses, array_uses, defs, array_defs =
        List.fold_left
          (fun (u, au, d, ad) arg ->
            let u', au', d', ad' = refs arg in
            ( Names.union u u',
              Names.union au au',
              Names.union d d',
              Names.union ad ad' ))
          (su.su_uses, su.su_arr_uses, su.su_defs, su.su_arr_defs)
          args
      in
      [ node ~stmt:s ~defs ~uses ~array_defs ~array_uses () ]
    | Hir.Return e ->
      let uses, array_uses, defs, array_defs =
        match e with
        | None -> (Names.empty, Names.empty, Names.empty, Names.empty)
        | Some e -> refs e
      in
      let n = node ~stmt:s ~defs ~uses ~array_defs ~array_uses () in
      returns := n :: !returns;
      []
    | Hir.If (cond, a, bstmts) ->
      let uses, array_uses, defs, array_defs = refs cond in
      let h = node ~stmt:s ~defs ~uses ~array_defs ~array_uses () in
      let into_then, into_else =
        match const_value cond with
        | Some 0 -> ([], [ h ])
        | Some _ -> ([ h ], [])
        | None -> ([ h ], [ h ])
      in
      let texit =
        if a = [] then into_then else seq (path ^ "/then") into_then a
      in
      let eexit =
        if bstmts = [] then into_else
        else seq (path ^ "/else") into_else bstmts
      in
      texit @ eexit
    | Hir.While (cond, body) ->
      let uses, array_uses, defs, array_defs = refs cond in
      let h = node ~stmt:s ~defs ~uses ~array_defs ~array_uses () in
      let into_body =
        match const_value cond with Some 0 -> [] | _ -> [ h ]
      in
      let bexit = seq (path ^ "/do") into_body body in
      List.iter (fun p -> connect p h) bexit;
      (match const_value cond with Some n when n <> 0 -> [] | _ -> [ h ])
    | Hir.For (iv, lo, hi, body) ->
      let h = node ~stmt:s ~defs:(Names.singleton iv) () in
      let into_body = if lo > hi then [] else [ h ] in
      let bexit = seq (path ^ "/do") into_body body in
      List.iter (fun p -> connect p h) bexit;
      [ h ]
  in
  let exits = seq name [ entry ] stmts in
  let exit_ = add b ~path:(name ^ "/exit") () in
  List.iter (fun p -> connect p exit_) exits;
  List.iter (fun r -> connect r exit_) !returns;
  if loops then connect exit_ entry;
  let nodes = Array.of_list (List.rev b.rev_nodes) in
  { nodes; entry = entry.id; exit_ = exit_.id }

let of_body m =
  (* The behavioural process is an implicit infinite loop (SC_CTHREAD):
     control falls from the last statement back to the first, which
     the exit→entry edge models. *)
  build
    ~name:(m.Hir.m_name ^ "/body")
    ~loops:true (summaries m) m.Hir.m_body

let of_subprogram m s =
  build
    ~name:(m.Hir.m_name ^ "/" ^ s.Hir.s_name)
    ~loops:false (summaries m) s.Hir.s_body

(* -- fixpoints ------------------------------------------------------- *)

type solution = { before : Names.t array; after : Names.t array }

let forward t ~init ~transfer =
  let n = Array.length t.nodes in
  let before = Array.make n Names.empty and after = Array.make n Names.empty in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun node ->
        let inset =
          List.fold_left
            (fun acc p -> Names.union acc after.(p))
            (if node.id = t.entry then init else Names.empty)
            node.pred
        in
        let outset = transfer node inset in
        if
          not
            (Names.equal inset before.(node.id)
            && Names.equal outset after.(node.id))
        then begin
          before.(node.id) <- inset;
          after.(node.id) <- outset;
          changed := true
        end)
      t.nodes
  done;
  { before; after }

let backward t ~init ~transfer =
  let n = Array.length t.nodes in
  let before = Array.make n Names.empty and after = Array.make n Names.empty in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = n - 1 downto 0 do
      let node = t.nodes.(i) in
      let outset =
        List.fold_left
          (fun acc s -> Names.union acc before.(s))
          (if node.id = t.exit_ then init else Names.empty)
          node.succ
      in
      let inset = transfer node outset in
      if
        not
          (Names.equal outset after.(node.id)
          && Names.equal inset before.(node.id))
      then begin
        after.(node.id) <- outset;
        before.(node.id) <- inset;
        changed := true
      end
    done
  done;
  { before; after }

let kill_set node =
  Names.union node.defs node.array_defs

(* May-be-uninitialised: a name is in the set while some path from the
   entry reaches this point without writing it. *)
let maybe_uninit t ~at_entry =
  forward t ~init:at_entry ~transfer:(fun n s -> Names.diff s (kill_set n))

(* Classic liveness; [at_exit] holds the names observable after the
   region (e.g. module state for a subprogram). *)
let live t ~at_exit =
  backward t ~init:at_exit ~transfer:(fun n s ->
      Names.union
        (Names.union n.uses n.array_uses)
        (Names.diff s (kill_set n)))

let reachable t =
  let seen = Array.make (Array.length t.nodes) false in
  let rec go id =
    if not seen.(id) then begin
      seen.(id) <- true;
      List.iter go t.nodes.(id).succ
    end
  in
  go t.entry;
  seen

let stmt_label = function
  | Hir.Assign (Hir.Lv_var n, _) -> "assignment to " ^ n
  | Hir.Assign (Hir.Lv_arr (a, _), _) -> "assignment to " ^ a ^ "[...]"
  | Hir.If _ -> "if"
  | Hir.While _ -> "while"
  | Hir.For (iv, _, _, _) -> "for " ^ iv
  | Hir.Wait -> "wait"
  | Hir.Call_p (p, _) -> "call to " ^ p
  | Hir.Return _ -> "return"
