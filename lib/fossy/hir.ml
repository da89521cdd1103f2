type ty = { width : int; signed : bool }

let int_ty width =
  if width <= 0 || width > 64 then invalid_arg "Hir.int_ty: width";
  { width; signed = true }

let uint_ty width =
  if width <= 0 || width > 64 then invalid_arg "Hir.uint_ty: width";
  { width; signed = false }

type binop =
  | Add | Sub | Mul
  | Shl | Shr
  | Band | Bor | Bxor
  | Eq | Ne | Lt | Le | Gt | Ge

type unop = Neg | Bnot

type expr =
  | Const of int
  | Var of string
  | Arr of string * expr
  | Bin of binop * expr * expr
  | Un of unop * expr
  | Call of string * expr list

type lvalue = Lv_var of string | Lv_arr of string * expr

type stmt =
  | Assign of lvalue * expr
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | For of string * int * int * stmt list
  | Wait
  | Call_p of string * expr list
  | Return of expr option

type subprogram = {
  s_name : string;
  s_params : (string * ty) list;
  s_ret : ty option;
  s_locals : (string * ty) list;
  s_body : stmt list;
}

type port_dir = Pin | Pout

type module_def = {
  m_name : string;
  m_ports : (string * port_dir * ty) list;
  m_vars : (string * ty) list;
  m_arrays : (string * ty * int) list;
  m_subprograms : subprogram list;
  m_body : stmt list;
}

let v name = Var name
let c n = Const n
let ( +: ) a b = Bin (Add, a, b)
let ( -: ) a b = Bin (Sub, a, b)
let ( *: ) a b = Bin (Mul, a, b)
let ( >>: ) a n = Bin (Shr, a, Const n)
let ( <: ) a b = Bin (Lt, a, b)
let assign name e = Assign (Lv_var name, e)
let assign_arr name idx e = Assign (Lv_arr (name, idx), e)

(* -- validation ------------------------------------------------------ *)

let rec stmts_contain_wait stmts =
  List.exists
    (function
      | Wait -> true
      | If (_, a, b) -> stmts_contain_wait a || stmts_contain_wait b
      | While (_, body) | For (_, _, _, body) -> stmts_contain_wait body
      | Assign _ | Call_p _ | Return _ -> false)
    stmts

let validate m =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  let subprogram_names = List.map (fun s -> s.s_name) m.m_subprograms in
  let array_names = List.map (fun (n, _, _) -> n) m.m_arrays in
  let duplicate names label =
    let sorted = List.sort String.compare names in
    let rec scan = function
      | a :: (b :: _ as rest) ->
        if String.equal a b then err "duplicate %s %s" label a;
        scan rest
      | [ _ ] | [] -> ()
    in
    scan sorted
  in
  let module_names =
    List.map (fun (n, _, _) -> n) m.m_ports
    @ List.map fst m.m_vars @ array_names
  in
  duplicate subprogram_names "subprogram";
  (* Ports, variables and arrays share one name space: codegen maps
     them all to VHDL signals/variables of the entity. *)
  duplicate module_names "port/variable/array";
  List.iter
    (fun s ->
      let local_names = List.map fst s.s_params @ List.map fst s.s_locals in
      duplicate local_names (Printf.sprintf "parameter/local in %s" s.s_name);
      List.iter
        (fun n ->
          if List.mem n module_names then
            err "%s in %s shadows a module-level name" n s.s_name)
        local_names)
    m.m_subprograms;
  let known_vars extra =
    List.map (fun (n, _, _) -> n) m.m_ports @ List.map fst m.m_vars @ extra
  in
  let rec check_expr vars = function
    | Const _ -> ()
    | Var n -> if not (List.mem n vars) then err "unknown variable %s" n
    | Arr (n, i) ->
      if not (List.mem n array_names) then err "unknown array %s" n;
      check_expr vars i
    | Bin (_, a, b) ->
      check_expr vars a;
      check_expr vars b
    | Un (_, e) -> check_expr vars e
    | Call (f, args) ->
      (match List.find_opt (fun s -> s.s_name = f) m.m_subprograms with
      | None -> err "unknown function %s" f
      | Some s ->
        if s.s_ret = None then err "procedure %s used as function" f;
        if List.length args <> List.length s.s_params then
          err "arity mismatch calling %s" f);
      List.iter (check_expr vars) args
  in
  let rec check_stmts vars ~in_function stmts =
    List.iteri
      (fun i stmt ->
        match stmt with
        | Assign (Lv_var n, e) ->
          if not (List.mem n vars) then err "assignment to unknown variable %s" n;
          check_expr vars e
        | Assign (Lv_arr (n, idx), e) ->
          if not (List.mem n array_names) then err "unknown array %s" n;
          check_expr vars idx;
          check_expr vars e
        | If (cond, a, b) ->
          check_expr vars cond;
          check_stmts vars ~in_function a;
          check_stmts vars ~in_function b
        | While (cond, body) ->
          check_expr vars cond;
          if not (stmts_contain_wait body) then
            err "while loop without Wait in %s is not synthesisable" m.m_name;
          check_stmts vars ~in_function body
        | For (iv, lo, hi, body) ->
          if lo > hi then err "for %s: reversed bounds (%d > %d)" iv lo hi;
          check_stmts (iv :: vars) ~in_function body
        | Wait ->
          (* Clock boundaries are fine in procedures (they are inlined
             before FSM extraction) but not in value-returning
             functions, whose calls sit inside expressions. *)
          if in_function = `Function then
            err "Wait inside a function is not supported"
        | Call_p (p, args) ->
          (match List.find_opt (fun s -> s.s_name = p) m.m_subprograms with
          | None -> err "unknown procedure %s" p
          | Some s ->
            if s.s_ret <> None then err "function %s called as procedure" p;
            if List.length args <> List.length s.s_params then
              err "arity mismatch calling %s" p);
          List.iter (check_expr vars) args
        | Return _ ->
          if in_function = `Process then err "Return outside subprogram"
          else if i <> List.length stmts - 1 then
            err "Return must be the last statement")
      stmts
  in
  check_stmts (known_vars []) ~in_function:`Process m.m_body;
  List.iter
    (fun s ->
      let vars = known_vars (List.map fst s.s_params @ List.map fst s.s_locals) in
      let kind = if s.s_ret = None then `Procedure else `Function in
      check_stmts vars ~in_function:kind s.s_body;
      match (s.s_ret, List.rev s.s_body) with
      | Some _, Return (Some _) :: _ -> ()
      | Some _, _ -> err "function %s must end with Return" s.s_name
      | None, Return (Some _) :: _ -> err "procedure %s returns a value" s.s_name
      | None, _ -> ())
    m.m_subprograms;
  match !errors with [] -> Ok () | es -> Error (List.rev es)
