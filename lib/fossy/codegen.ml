open Rtl.Vhdl

let state_label i = Printf.sprintf "s%d" i

let vtype_of_ty (ty : Hir.ty) =
  if ty.Hir.signed then Signed_v ty.Hir.width else Unsigned_v ty.Hir.width

let binop_str = function
  | Hir.Add -> "+"
  | Hir.Sub -> "-"
  | Hir.Mul -> "*"
  | Hir.Band -> "and"
  | Hir.Bor -> "or"
  | Hir.Bxor -> "xor"
  | Hir.Eq -> "="
  | Hir.Ne -> "/="
  | Hir.Lt -> "<"
  | Hir.Le -> "<="
  | Hir.Gt -> ">"
  | Hir.Ge -> ">="
  | Hir.Shl | Hir.Shr -> assert false (* rendered as shift calls *)

type env = {
  widths : (string, int) Hashtbl.t; (* variable/port/array element widths *)
  outputs : (string, unit) Hashtbl.t;
}

let width_of env name = Option.value (Hashtbl.find_opt env.widths name) ~default:32

let rec expr_width env = function
  | Hir.Const n ->
    let rec bits v acc = if v = 0 then acc else bits (v lsr 1) (acc + 1) in
    Stdlib.max 2 (bits (abs n) 0 + 1)
  | Hir.Var n -> width_of env n
  | Hir.Arr (n, _) -> width_of env n
  | Hir.Bin ((Hir.Eq | Hir.Ne | Hir.Lt | Hir.Le | Hir.Gt | Hir.Ge), _, _) -> 1
  | Hir.Bin (_, a, b) -> Stdlib.max (expr_width env a) (expr_width env b)
  | Hir.Un (_, e) -> expr_width env e
  | Hir.Call (_, args) ->
    List.fold_left (fun w a -> Stdlib.max w (expr_width env a)) 0 args

(* Translate an expression. Arithmetic on signed vectors: literals
   become to_signed(value, width) at use width; shifts by constants
   map to numeric_std shift functions. *)
let rec tr_expr env ~width e =
  match e with
  | Hir.Const n -> Call_e ("to_signed", [ Int_lit n; Int_lit width ])
  | Hir.Var n ->
    if width_of env n = width then Name n
    else Call_e ("resize", [ Name n; Int_lit width ])
  | Hir.Arr (n, i) ->
    let iw = Stdlib.max 2 (expr_width env i) in
    let idx = Call_e ("to_integer", [ tr_expr env ~width:iw i ]) in
    if width_of env n = width then Indexed (n, idx)
    else Call_e ("resize", [ Indexed (n, idx); Int_lit width ])
  | Hir.Un (Hir.Neg, e) -> Unop ("-", Paren (tr_expr env ~width e))
  | Hir.Un (Hir.Bnot, e) -> Unop ("not", Paren (tr_expr env ~width e))
  | Hir.Bin (Hir.Shl, a, Hir.Const n) ->
    Call_e ("shift_left", [ tr_expr env ~width a; Int_lit n ])
  | Hir.Bin (Hir.Shr, a, Hir.Const n) ->
    Call_e ("shift_right", [ tr_expr env ~width a; Int_lit n ])
  | Hir.Bin ((Hir.Shl | Hir.Shr) as op, a, b) ->
    let name = if op = Hir.Shl then "shift_left" else "shift_right" in
    Call_e
      ( name,
        [
          tr_expr env ~width a;
          Call_e
            ("to_integer", [ tr_expr env ~width:(Stdlib.max 2 (expr_width env b)) b ]);
        ] )
  | Hir.Bin (Hir.Mul, a, b) ->
    (* numeric_std multiplication widens; resize back to the target. *)
    let wa = expr_width env a and wb = expr_width env b in
    Call_e
      ( "resize",
        [
          Paren (Binop ("*", tr_expr env ~width:wa a, tr_expr env ~width:wb b));
          Int_lit width;
        ] )
  | Hir.Bin (op, a, b) ->
    let w = Stdlib.max width (Stdlib.max (expr_width env a) (expr_width env b)) in
    Paren (Binop (binop_str op, tr_expr env ~width:w a, tr_expr env ~width:w b))
  | Hir.Call (f, _) -> failwith ("Codegen: residual call to " ^ f)

let rec tr_cond env e =
  match e with
  | Hir.Bin ((Hir.Eq | Hir.Ne | Hir.Lt | Hir.Le | Hir.Gt | Hir.Ge), _, _)
  | Hir.Un (Hir.Bnot, _) ->
    (* Comparison yields boolean directly. *)
    (match e with
    | Hir.Bin (op, a, b) ->
      let w = Stdlib.max (expr_width env a) (expr_width env b) in
      Binop (binop_str op, tr_expr env ~width:w a, tr_expr env ~width:w b)
    | Hir.Un (Hir.Bnot, inner) ->
      Unop ("not", Paren (tr_cond env inner))
    | Hir.Const _ | Hir.Var _ | Hir.Arr _ | Hir.Un (Hir.Neg, _) | Hir.Call _ ->
      assert false)
  | Hir.Const _ | Hir.Var _ | Hir.Arr _ | Hir.Bin _ | Hir.Un (Hir.Neg, _)
  | Hir.Call _ ->
    (* Non-comparison condition: compare against zero. *)
    let w = expr_width env e in
    Binop ("/=", tr_expr env ~width:w e, Call_e ("to_signed", [ Int_lit 0; Int_lit w ]))

let tr_assign env lv e =
  match lv with
  | Hir.Lv_var n ->
    let w = width_of env n in
    let rhs = tr_expr env ~width:w e in
    if Hashtbl.mem env.outputs n then Sig_assign (n, rhs) else Var_assign (n, rhs)
  | Hir.Lv_arr (n, i) ->
    let w = width_of env n in
    Idx_var_assign
      ( n,
        Call_e
          ("to_integer", [ tr_expr env ~width:(Stdlib.max 2 (expr_width env i)) i ]),
        tr_expr env ~width:w e )

let rec tr_action env = function
  | Fsm.Do (lv, e) -> [ tr_assign env lv e ]
  | Fsm.Do_if (c, a, b) ->
    [
      If_s
        ( [ (tr_cond env c, List.concat_map (tr_action env) a) ],
          List.concat_map (tr_action env) b );
    ]

let tr_next env = function
  | Fsm.Goto i -> [ Var_assign ("state", Name (state_label i)) ]
  | Fsm.Branch (c, a, b) ->
    [
      If_s
        ( [ (tr_cond env c, [ Var_assign ("state", Name (state_label a)) ]) ],
          [ Var_assign ("state", Name (state_label b)) ] );
    ]

(* A name's first binding wins: ports, then variables, then arrays. *)
let table bindings =
  let t = Hashtbl.create 64 in
  List.iter (fun (n, v) -> if not (Hashtbl.mem t n) then Hashtbl.add t n v) bindings;
  t

let run (fsm : Fsm.t) =
  let env =
    {
      widths =
        table
          (List.map (fun (n, ty) -> (n, ty.Hir.width)) (fsm.Fsm.inputs @ fsm.Fsm.outputs)
          @ List.map (fun (n, ty) -> (n, ty.Hir.width)) fsm.Fsm.vars
          @ List.map (fun (n, ty, _) -> (n, ty.Hir.width)) fsm.Fsm.arrays);
      outputs = table (List.map (fun (n, _) -> (n, ())) fsm.Fsm.outputs);
    }
  in
  let n_states = Array.length fsm.Fsm.states in
  let state_type_name = fsm.Fsm.fsm_name ^ "_state_t" in
  let entity =
    {
      ent_name = fsm.Fsm.fsm_name;
      ports =
        [
          { port_name = "clk"; dir = In; ptype = Std_logic };
          { port_name = "reset"; dir = In; ptype = Std_logic };
        ]
        @ List.map
            (fun (n, ty) -> { port_name = n; dir = In; ptype = vtype_of_ty ty })
            fsm.Fsm.inputs
        @ List.map
            (fun (n, ty) -> { port_name = n; dir = Out; ptype = vtype_of_ty ty })
            fsm.Fsm.outputs;
    }
  in
  let array_type_name n = n ^ "_array_t" in
  let arch_decls =
    Enum_d (state_type_name, List.init n_states state_label)
    :: List.map
         (fun (n, ty, len) -> Array_d (array_type_name n, len, vtype_of_ty ty))
         fsm.Fsm.arrays
  in
  let proc_vars =
    Variable_d ("state", Enum_ref state_type_name, Some (Name (state_label fsm.Fsm.entry)))
    :: List.map (fun (n, ty) -> Variable_d (n, vtype_of_ty ty, None)) fsm.Fsm.vars
    @ List.map
        (fun (n, _, _) -> Variable_d (n, Array_ref (array_type_name n), None))
        fsm.Fsm.arrays
  in
  let reset_actions =
    Var_assign ("state", Name (state_label fsm.Fsm.entry))
    :: List.map
         (fun (n, ty) ->
           Var_assign (n, Call_e ("to_signed", [ Int_lit 0; Int_lit ty.Hir.width ])))
         fsm.Fsm.vars
    @ List.map
        (fun (n, ty) ->
          Sig_assign (n, Call_e ("to_signed", [ Int_lit 0; Int_lit ty.Hir.width ])))
        fsm.Fsm.outputs
  in
  let state_case =
    Case_s
      ( Name "state",
        Array.to_list
          (Array.mapi
             (fun i st ->
               ( state_label i,
                 Comment (Printf.sprintf "state %d" i)
                 :: List.concat_map (tr_action env) st.Fsm.actions
                 @ tr_next env st.Fsm.next ))
             fsm.Fsm.states) )
  in
  let body =
    [
      If_s
        ( [
            (Binop ("=", Name "reset", Bit_lit '1'), reset_actions);
            (Call_e ("rising_edge", [ Name "clk" ]), [ state_case ]);
          ],
          [] );
    ]
  in
  let process = clocked_process ~name:(fsm.Fsm.fsm_name ^ "_fsm") ~decls:proc_vars body in
  {
    entity;
    architecture =
      { arch_name = "fossy"; arch_decls; processes = [ process ] };
  }
