module D = Diagnostic
module Names = Dataflow.Names

(* -- walking helpers ------------------------------------------------- *)

(* Visits every statement with its path, recursing into compound
   bodies. *)
let iter_stmts prefix stmts f =
  let rec seq prefix stmts =
    List.iteri
      (fun i s ->
        let p = Printf.sprintf "%s/%d" prefix i in
        f p s;
        match s with
        | Hir.If (_, a, b) ->
          seq (p ^ "/then") a;
          seq (p ^ "/else") b
        | Hir.While (_, body) | Hir.For (_, _, _, body) -> seq (p ^ "/do") body
        | Hir.Assign _ | Hir.Wait | Hir.Call_p _ | Hir.Return _ -> ())
      stmts
  in
  seq prefix stmts

let iter_regions m f =
  f (m.Hir.m_name ^ "/body") None m.Hir.m_body;
  List.iter
    (fun s -> f (m.Hir.m_name ^ "/" ^ s.Hir.s_name) (Some s) s.Hir.s_body)
    m.Hir.m_subprograms

(* -- dataflow-backed passes ------------------------------------------ *)

(* W001/W002: reads that some path reaches before any write. The
   interpreter zero-initialises storage and hardware registers power
   up to a defined value, so this is a warning, not an error — but the
   read still depends on an implicit initial value the source never
   states. *)
let uninit_reads m =
  let check cfg at_entry acc =
    let sol = Dataflow.maybe_uninit cfg ~at_entry in
    Array.fold_left
      (fun acc node ->
        let before = sol.Dataflow.before.(node.Dataflow.id) in
        let acc =
          Names.fold
            (fun x acc ->
              D.warning ~code:"W001" ~path:node.Dataflow.path
                "variable %s may be read before initialisation" x
              :: acc)
            (Names.inter node.Dataflow.uses before)
            acc
        in
        Names.fold
          (fun a acc ->
            D.warning ~code:"W002" ~path:node.Dataflow.path
              "array %s may be read before any element is written" a
            :: acc)
          (Names.inter node.Dataflow.array_uses before)
          acc)
      acc cfg.Dataflow.nodes
  in
  let module_state =
    Names.of_list
      (List.map fst m.Hir.m_vars
      @ List.map (fun (n, _, _) -> n) m.Hir.m_arrays)
  in
  let acc = check (Dataflow.of_body m) module_state [] in
  List.fold_left
    (fun acc s ->
      (* Locals start undefined; module state and parameters are
         defined by the caller. *)
      let locals = Names.of_list (List.map fst s.Hir.s_locals) in
      check (Dataflow.of_subprogram m s) locals acc)
    acc m.Hir.m_subprograms

(* W003: assignments whose value no path reads again. Writes to output
   ports are externally observable and writes to module state from a
   subprogram outlive the call, so both are exempt. *)
let dead_assignments m =
  let ports = Names.of_list (List.map (fun (n, _, _) -> n) m.Hir.m_ports) in
  let module_state =
    Names.union ports (Names.of_list (List.map fst m.Hir.m_vars))
  in
  let check cfg ~observable ~exempt acc =
    let sol = Dataflow.live cfg ~at_exit:observable in
    Array.fold_left
      (fun acc node ->
        match node.Dataflow.stmt with
        | Some (Hir.Assign (Hir.Lv_var x, _))
          when (not (Names.mem x exempt))
               && not (Names.mem x sol.Dataflow.after.(node.Dataflow.id)) ->
          D.warning ~code:"W003" ~path:node.Dataflow.path
            "assignment to %s is dead: the value is never read" x
          :: acc
        | _ -> acc)
      acc cfg.Dataflow.nodes
  in
  let acc =
    check (Dataflow.of_body m) ~observable:ports ~exempt:ports []
  in
  List.fold_left
    (fun acc s ->
      check
        (Dataflow.of_subprogram m s)
        ~observable:module_state ~exempt:module_state acc)
    acc m.Hir.m_subprograms

(* W004: statements no constant-aware path from the entry reaches. *)
let unreachable_stmts m =
  let check cfg acc =
    let seen = Dataflow.reachable cfg in
    Array.fold_left
      (fun acc node ->
        match node.Dataflow.stmt with
        | Some s when not seen.(node.Dataflow.id) ->
          D.warning ~code:"W004" ~path:node.Dataflow.path
            "unreachable statement (%s)" (Dataflow.stmt_label s)
          :: acc
        | _ -> acc)
      acc cfg.Dataflow.nodes
  in
  let acc = check (Dataflow.of_body m) [] in
  List.fold_left
    (fun acc s -> check (Dataflow.of_subprogram m s) acc)
    acc m.Hir.m_subprograms

(* -- width lints ----------------------------------------------------- *)

let fits ty n =
  let w = ty.Hir.width in
  if w >= 63 then true
  else if ty.Hir.signed then n >= -(1 lsl (w - 1)) && n <= (1 lsl (w - 1)) - 1
  else n >= 0 && n <= (1 lsl w) - 1

let pp_ty ty =
  Printf.sprintf "%s<%d>" (if ty.Hir.signed then "int" else "uint") ty.Hir.width

let is_cmp = function
  | Hir.Eq | Hir.Ne | Hir.Lt | Hir.Le | Hir.Gt | Hir.Ge -> true
  | _ -> false

(* W005 constants that overflow the declared type, E006 shifts by the
   full width or more, W007 comparisons mixing signedness. Loop
   variables have no declared type and are skipped. *)
let width_lints m =
  let tys = Hashtbl.create 16 in
  List.iter (fun (n, _, ty) -> Hashtbl.replace tys n ty) m.Hir.m_ports;
  List.iter (fun (n, ty) -> Hashtbl.replace tys n ty) m.Hir.m_vars;
  let arr_tys = Hashtbl.create 8 in
  List.iter (fun (n, ty, _) -> Hashtbl.replace arr_tys n ty) m.Hir.m_arrays;
  let acc = ref [] in
  let emit d = acc := d :: !acc in
  let check_region locals prefix body =
    let local_tys = Hashtbl.copy tys in
    List.iter (fun (n, t) -> Hashtbl.replace local_tys n t) locals;
    let ty_of n = Hashtbl.find_opt local_tys n in
    let side_ty = function
      | Hir.Var n -> ty_of n
      | Hir.Arr (a, _) -> Hashtbl.find_opt arr_tys a
      | _ -> None
    in
    let check_const path what ty n =
      if not (fits ty n) then
        emit
          (D.warning ~code:"W005" ~path
             "constant %d does not fit %s of type %s" n what (pp_ty ty))
    in
    let check_args path callee args =
      match List.find_opt (fun s -> s.Hir.s_name = callee) m.Hir.m_subprograms with
      | None -> ()
      | Some s ->
        (try
           List.iter2
             (fun (pname, pty) arg ->
               match arg with
               | Hir.Const n ->
                 check_const path
                   (Printf.sprintf "parameter %s of %s" pname callee)
                   pty n
               | _ -> ())
             s.Hir.s_params args
         with Invalid_argument _ -> ())
    in
    let rec expr path = function
      | Hir.Const _ | Hir.Var _ -> ()
      | Hir.Arr (_, i) -> expr path i
      | Hir.Un (_, e) -> expr path e
      | Hir.Call (f, args) ->
        check_args path f args;
        List.iter (expr path) args
      | Hir.Bin (op, a, b) ->
        (match (op, side_ty a, b) with
        | (Hir.Shl | Hir.Shr), Some ty, Hir.Const n when n >= ty.Hir.width || n < 0
          ->
          emit
            (D.error ~code:"E006" ~path
               "shift by %d exceeds the %d-bit width of the operand" n
               ty.Hir.width)
        | _ -> ());
        (if is_cmp op then
           match (side_ty a, side_ty b) with
           | Some ta, Some tb when ta.Hir.signed <> tb.Hir.signed ->
             emit
               (D.warning ~code:"W007" ~path
                  "comparison mixes signed and unsigned operands (%s vs %s)"
                  (pp_ty ta) (pp_ty tb))
           | _ ->
             (match (a, side_ty a, b) with
             | Hir.Var x, Some ty, Hir.Const n when not (fits ty n) ->
               emit
                 (D.warning ~code:"W005" ~path
                    "comparison of %s : %s with out-of-range constant %d" x
                    (pp_ty ty) n)
             | _ -> ()));
        expr path a;
        expr path b
    in
    iter_stmts prefix body (fun path s ->
        match s with
        | Hir.Assign (lv, e) ->
          (match (lv, e) with
          | Hir.Lv_var x, Hir.Const n ->
            Option.iter (fun ty -> check_const path ("variable " ^ x) ty n) (ty_of x)
          | Hir.Lv_arr (a, _), Hir.Const n ->
            Option.iter
              (fun ty -> check_const path ("element of array " ^ a) ty n)
              (Hashtbl.find_opt arr_tys a)
          | _ -> ());
          (match lv with Hir.Lv_arr (_, i) -> expr path i | Hir.Lv_var _ -> ());
          expr path e
        | Hir.If (c, _, _) | Hir.While (c, _) -> expr path c
        | Hir.Call_p (p, args) ->
          check_args path p args;
          List.iter (expr path) args
        | Hir.Return (Some e) -> expr path e
        | Hir.For _ | Hir.Wait | Hir.Return None -> ())
  in
  check_region [] (m.Hir.m_name ^ "/body") m.Hir.m_body;
  List.iter
    (fun s ->
      check_region
        (s.Hir.s_params @ s.Hir.s_locals)
        (m.Hir.m_name ^ "/" ^ s.Hir.s_name)
        s.Hir.s_body)
    m.Hir.m_subprograms;
  !acc

(* -- synthesisability ------------------------------------------------ *)

(* E008: every path through a While body must pass a Wait, or the FSM
   for one clock cycle would have to run an unbounded number of
   iterations. [Hir.validate] only demands that some Wait exists; the
   path-sensitive version catches waits hidden behind one branch. *)
let wait_free_loops m =
  let find_sub p = List.find_opt (fun s -> s.Hir.s_name = p) m.Hir.m_subprograms in
  let rec sub_always_waits visited p =
    match find_sub p with
    | None -> false
    | Some s ->
      if List.mem p visited then false
      else seq_waits (p :: visited) s.Hir.s_body
  and seq_waits visited stmts = List.exists (stmt_waits visited) stmts
  and stmt_waits visited = function
    | Hir.Wait -> true
    | Hir.Assign _ | Hir.Return _ -> false
    | Hir.If (Hir.Const 0, _, b) -> seq_waits visited b
    | Hir.If (Hir.Const _, a, _) -> seq_waits visited a
    | Hir.If (_, a, b) -> seq_waits visited a && seq_waits visited b
    | Hir.While (Hir.Const c, body) when c <> 0 ->
      (* The loop is entered unconditionally; if the body waits, every
         continuation of this statement has waited. *)
      seq_waits visited body
    | Hir.While _ -> false (* may iterate zero times *)
    | Hir.For (_, lo, hi, body) -> lo <= hi && seq_waits visited body
    | Hir.Call_p (p, _) -> sub_always_waits visited p
  in
  let acc = ref [] in
  iter_regions m (fun prefix _ body ->
      iter_stmts prefix body (fun path s ->
          match s with
          | Hir.While (_, body) when not (seq_waits [] body) ->
            acc :=
              D.error ~code:"E008" ~path
                "while loop has a path through its body without Wait; the \
                 FSM cannot bound one clock cycle"
              :: !acc
          | _ -> ()));
  !acc

(* E009: recursion cannot be inlined or synthesised. *)
let call_cycles m =
  let callees s =
    let acc = ref [] in
    let add f = if not (List.mem f !acc) then acc := f :: !acc in
    let rec expr = function
      | Hir.Const _ | Hir.Var _ -> ()
      | Hir.Arr (_, i) -> expr i
      | Hir.Bin (_, a, b) ->
        expr a;
        expr b
      | Hir.Un (_, e) -> expr e
      | Hir.Call (f, args) ->
        add f;
        List.iter expr args
    in
    let rec stmt = function
      | Hir.Assign (Hir.Lv_var _, e) | Hir.Return (Some e) -> expr e
      | Hir.Assign (Hir.Lv_arr (_, i), e) ->
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
      | Hir.Call_p (p, args) ->
        add p;
        List.iter expr args
      | Hir.Wait | Hir.Return None -> ()
    in
    List.iter stmt s.Hir.s_body;
    List.rev !acc
  in
  let reported = ref [] in
  let acc = ref [] in
  let rec dfs stack s =
    List.iter
      (fun f ->
        match List.find_opt (fun sub -> sub.Hir.s_name = f) m.Hir.m_subprograms with
        | None -> ()
        | Some sub ->
          if List.mem f stack then begin
            let cycle =
              let rec cut = function
                | [] -> []
                | x :: rest -> if x = f then [ x ] else x :: cut rest
              in
              List.rev (cut stack)
            in
            let key = List.sort String.compare cycle in
            if not (List.mem key !reported) then begin
              reported := key :: !reported;
              acc :=
                D.error ~code:"E009"
                  ~path:(m.Hir.m_name ^ "/" ^ f)
                  "recursive call cycle: %s"
                  (String.concat " -> " (cycle @ [ f ]))
                :: !acc
            end
          end
          else dfs (f :: stack) sub)
      (callees s)
  in
  List.iter (fun s -> dfs [ s.Hir.s_name ] s) m.Hir.m_subprograms;
  !acc

(* E010/E011/W015: port direction discipline. *)
let port_lints m =
  let dir n =
    List.find_opt (fun (p, _, _) -> p = n) m.Hir.m_ports
    |> Option.map (fun (_, d, _) -> d)
  in
  let acc = ref [] in
  let reads = Hashtbl.create 8 and writes = Hashtbl.create 8 in
  let rec expr = function
    | Hir.Const _ -> ()
    | Hir.Var n -> Hashtbl.replace reads n ()
    | Hir.Arr (_, i) -> expr i
    | Hir.Bin (_, a, b) ->
      expr a;
      expr b
    | Hir.Un (_, e) -> expr e
    | Hir.Call (_, args) -> List.iter expr args
  in
  iter_regions m (fun prefix _ body ->
      iter_stmts prefix body (fun path s ->
          match s with
          | Hir.Assign (Hir.Lv_var n, e) ->
            Hashtbl.replace writes n ();
            if dir n = Some Hir.Pin then
              acc :=
                D.error ~code:"E010" ~path
                  "write to input port %s: inputs are driven by the \
                   environment"
                  n
                :: !acc;
            expr e
          | Hir.Assign (Hir.Lv_arr (_, i), e) ->
            expr i;
            expr e
          | Hir.If (c, _, _) | Hir.While (c, _) -> expr c
          | Hir.Call_p (_, args) -> List.iter expr args
          | Hir.Return (Some e) -> expr e
          | Hir.For _ | Hir.Wait | Hir.Return None -> ()));
  List.iter
    (fun (n, d, _) ->
      if d = Hir.Pout && not (Hashtbl.mem writes n) then
        if Hashtbl.mem reads n then
          acc :=
            D.error ~code:"E011"
              ~path:(m.Hir.m_name ^ "/" ^ n)
              "output port %s is read but never driven" n
            :: !acc
        else
          acc :=
            D.warning ~code:"W015"
              ~path:(m.Hir.m_name ^ "/" ^ n)
              "output port %s is never driven" n
            :: !acc)
    m.Hir.m_ports;
  !acc

let run m =
  List.concat
    [
      uninit_reads m;
      dead_assignments m;
      unreachable_stmts m;
      width_lints m;
      wait_free_loops m;
      call_cycles m;
      port_lints m;
    ]
  |> List.sort_uniq D.compare
