open Vhdl

type op_kind = Add | Sub | Mul | Compare | Bitwise | Shift

type op_count = { kind : op_kind; width : int; count : int }

type port_count = { depth : int; pwidth : int; pcount : int }

type summary = {
  register_bits : int;
  array_bits : int;
  state_count : int;
  ops_total : op_count list;
  ops_shared : op_count list;
  reads_total : port_count list;
  reads_shared : port_count list;
  writes_total : port_count list;
  writes_shared : port_count list;
  mux2_bits : int;
  critical_path_ns : float;
  process_count : int;
}

(* -- operator cost tables --------------------------------------------

   Rough Virtex-4 figures: one LUT level ~0.4 ns; ripple carry
   ~0.05 ns/bit on the dedicated chain; multipliers as LUT trees;
   register-array read muxes traverse ~log4(depth) LUT levels thanks
   to the F5/F6 combiners. *)

let op_delay_ns kind ~width =
  let w = float_of_int (Stdlib.max 1 width) in
  match kind with
  | Add | Sub -> 0.8 +. (0.05 *. w)
  | Compare -> 0.7 +. (0.04 *. w)
  | Bitwise -> 0.4
  | Shift -> 0.6
  | Mul -> 2.5 +. (0.15 *. w)

let read_mux_delay_ns ~depth =
  let rec log2 n acc = if n <= 1 then acc else log2 ((n + 1) / 2) (acc + 1) in
  let levels = (log2 (Stdlib.max 1 depth) 0 + 1) / 2 in
  0.4 *. float_of_int levels

let op_luts kind ~width =
  let w = Stdlib.max 1 width in
  match kind with
  | Add | Sub | Compare -> w
  | Bitwise -> (w + 1) / 2
  | Shift -> w
  | Mul -> w * w / 2

let total_op_luts ops =
  List.fold_left (fun acc o -> acc + (o.count * op_luts o.kind ~width:o.width)) 0 ops

let read_port_luts ports =
  List.fold_left
    (fun acc p -> acc + (p.pcount * (p.depth - 1) * p.pwidth / 2))
    0 ports

let write_port_luts ports =
  List.fold_left (fun acc p -> acc + (p.pcount * p.depth / 2)) 0 ports

(* -- multisets keyed by shape ---------------------------------------- *)

module Key_map = Map.Make (struct
  type t = int * int * int (* generic 3-part key *)

  let compare = Stdlib.compare
end)

let op_code = function
  | Add -> 0
  | Sub -> 1
  | Mul -> 2
  | Compare -> 3
  | Bitwise -> 4
  | Shift -> 5

let op_of_code = function
  | 0 -> Add
  | 1 -> Sub
  | 2 -> Mul
  | 3 -> Compare
  | 4 -> Bitwise
  | _ -> Shift

let add_key key n map =
  Key_map.update key (fun v -> Some (Option.value v ~default:0 + n)) map

let union_sum = Key_map.union (fun _ a b -> Some (a + b))
let union_max = Key_map.union (fun _ a b -> Some (Stdlib.max a b))
let scale n map = Key_map.map (fun c -> c * n) map

let ops_of_map map =
  Key_map.fold
    (fun (code, width, _) count acc ->
      { kind = op_of_code code; width; count } :: acc)
    map []
  |> List.rev

let ports_of_map map =
  Key_map.fold
    (fun (depth, pwidth, _) pcount acc -> { depth; pwidth; pcount } :: acc)
    map []
  |> List.rev

(* -- width environment ------------------------------------------------ *)

type entry = { e_width : int; e_is_array : bool; e_depth : int }

let width_of_type env = function
  | Std_logic -> 1
  | Signed_v w | Unsigned_v w -> w
  | Integer_range (lo, hi) ->
    let span = Stdlib.max (abs lo) (abs hi) in
    let rec bits n acc = if n = 0 then acc else bits (n lsr 1) (acc + 1) in
    Stdlib.max 1 (bits span 0) + (if lo < 0 then 1 else 0)
  | Enum_ref name | Array_ref name -> (
    match Hashtbl.find_opt env name with Some e -> e.e_width | None -> 8)

let lookup env name = Hashtbl.find_opt env name

let lookup_width env name =
  match lookup env name with Some e -> Some e.e_width | None -> None

(* -- accumulation ------------------------------------------------------ *)

type acc = {
  ops_t : int Key_map.t; (* (op, width, 0) -> instances *)
  ops_c : int Key_map.t; (* concurrent (after cross-state sharing) *)
  rd_t : int Key_map.t; (* (depth, width, 0) -> read sites *)
  rd_c : int Key_map.t;
  wr_t : int Key_map.t;
  wr_c : int Key_map.t;
  mux : int;
  crit : float;
}

let empty_acc =
  {
    ops_t = Key_map.empty;
    ops_c = Key_map.empty;
    rd_t = Key_map.empty;
    rd_c = Key_map.empty;
    wr_t = Key_map.empty;
    wr_c = Key_map.empty;
    mux = 0;
    crit = 0.0;
  }

let merge_seq a b =
  {
    ops_t = union_sum a.ops_t b.ops_t;
    ops_c = union_sum a.ops_c b.ops_c;
    rd_t = union_sum a.rd_t b.rd_t;
    rd_c = union_sum a.rd_c b.rd_c;
    wr_t = union_sum a.wr_t b.wr_t;
    wr_c = union_sum a.wr_c b.wr_c;
    mux = a.mux + b.mux;
    crit = Stdlib.max a.crit b.crit;
  }

(* Case alternatives: hardware for all branches exists, but only one
   is active per cycle, so the concurrent view takes the maximum. *)
let merge_alt a b =
  {
    ops_t = union_sum a.ops_t b.ops_t;
    ops_c = union_max a.ops_c b.ops_c;
    rd_t = union_sum a.rd_t b.rd_t;
    rd_c = union_max a.rd_c b.rd_c;
    wr_t = union_sum a.wr_t b.wr_t;
    wr_c = union_max a.wr_c b.wr_c;
    mux = a.mux + b.mux;
    crit = Stdlib.max a.crit b.crit;
  }

let binop_kind = function
  | "+" -> Some Add
  | "-" -> Some Sub
  | "*" -> Some Mul
  | "=" | "/=" | "<" | "<=" | ">" | ">=" -> Some Compare
  | "and" | "or" | "xor" | "nand" | "nor" -> Some Bitwise
  | "sll" | "srl" | "sla" | "sra" -> Some Shift
  | _ -> None

let rec expr_is_constant = function
  | Int_lit _ | Bit_lit _ -> true
  | Paren e -> expr_is_constant e
  | Call_e (("to_signed" | "to_unsigned" | "resize"), args) ->
    List.for_all expr_is_constant args
  | Binop (_, a, b) -> expr_is_constant a && expr_is_constant b
  | Unop (_, e) -> expr_is_constant e
  | Name _ | Indexed _ | Call_e _ -> false

(* Analysis context: declarations, analysed subprograms, and the
   combinational depth already accumulated on each process variable —
   VHDL variables chain within a clock cycle (reading one continues
   its combinational path), signals read their registered value. *)
type ctx = {
  env : (string, entry) Hashtbl.t;
  funcs : (string, acc * int) Hashtbl.t;
  depths : (string, float) Hashtbl.t;
}

let depth_of ctx n = Option.value (Hashtbl.find_opt ctx.depths n) ~default:0.0

(* Expression analysis: (width, delay, acc). Operator width is the max
   operand width (numeric_std same-size arithmetic). *)
let rec analyse_expr ctx expr =
  match expr with
  | Int_lit _ -> (0, 0.0, empty_acc)
  | Bit_lit _ -> (1, 0.0, empty_acc)
  | Name n ->
    (Option.value (lookup_width ctx.env n) ~default:8, depth_of ctx n, empty_acc)
  | Indexed (n, i) ->
    let _, di, ai = analyse_expr ctx i in
    let entry = lookup ctx.env n in
    let width = match entry with Some e -> e.e_width | None -> 8 in
    let base = Stdlib.max di (depth_of ctx n) in
    if expr_is_constant i then (width, base, ai)
    else begin
      let depth = match entry with Some e when e.e_is_array -> e.e_depth | _ -> 2 in
      let read = { ai with rd_t = add_key (depth, width, 0) 1 ai.rd_t;
                           rd_c = add_key (depth, width, 0) 1 ai.rd_c } in
      (width, base +. read_mux_delay_ns ~depth, read)
    end
  | Paren e -> analyse_expr ctx e
  | Unop ("-", e) ->
    let w, d, a = analyse_expr ctx e in
    ( w,
      d +. op_delay_ns Sub ~width:w,
      { a with ops_t = add_key (op_code Sub, w, 0) 1 a.ops_t;
               ops_c = add_key (op_code Sub, w, 0) 1 a.ops_c } )
  | Unop (_, e) ->
    let w, d, a = analyse_expr ctx e in
    (w, d +. 0.4, a)
  | Call_e (f, args) ->
    let w, d, a =
      List.fold_left
        (fun (w, d, a) arg ->
          let w', d', a' = analyse_expr ctx arg in
          (Stdlib.max w w', Stdlib.max d d', merge_seq a a'))
        (0, 0.0, empty_acc) args
    in
    (match Hashtbl.find_opt ctx.funcs f with
    | Some (body_acc, ret_width) ->
      (ret_width, d +. body_acc.crit, merge_seq a body_acc)
    | None ->
      (* resize / to_integer / shift_right by constant / rising_edge:
         free wiring. Conversions with a literal width argument yield
         that width. *)
      let w =
        match (f, List.rev args) with
        | ("to_signed" | "to_unsigned" | "resize"), Int_lit width :: _ -> width
        | _ -> w
      in
      (w, d, a))
  | Binop (op, a, b) ->
    let wa, da, aa = analyse_expr ctx a in
    let wb, db, ab = analyse_expr ctx b in
    let w = Stdlib.max wa wb in
    let acc = merge_seq aa ab in
    let rec const_value = function
      | Int_lit v -> Some v
      | Paren e -> const_value e
      | Unop ("-", e) -> Option.map Int.neg (const_value e)
      | Call_e (("to_signed" | "to_unsigned"), v :: _) -> const_value v
      | Bit_lit _ | Name _ | Indexed _ | Binop _ | Unop _ | Call_e _ -> None
    in
    let power_of_two_mul =
      op = "*"
      &&
      let is_pow2 e =
        match const_value e with
        | Some v -> v <> 0 && abs v land (abs v - 1) = 0
        | None -> false
      in
      is_pow2 a || is_pow2 b
    in
    (match binop_kind op with
    | Some _ when power_of_two_mul ->
      (* Multiplication by a power of two is wiring. *)
      (w, Stdlib.max da db +. 0.2, acc)
    | Some kind ->
      let out_w = match kind with Compare -> 1 | _ -> w in
      ( out_w,
        Stdlib.max da db +. op_delay_ns kind ~width:w,
        { acc with ops_t = add_key (op_code kind, w, 0) 1 acc.ops_t;
                   ops_c = add_key (op_code kind, w, 0) 1 acc.ops_c } )
    | None -> (w, Stdlib.max da db, acc))

let acc_of_expr ctx e =
  let _, d, a = analyse_expr ctx e in
  { a with crit = Stdlib.max a.crit d }

let expr_delay ctx e =
  let _, d, _ = analyse_expr ctx e in
  d

let target_width ctx name =
  Option.value (lookup_width ctx.env name) ~default:8

let rec assigned_targets stmts =
  List.concat_map
    (function
      | Sig_assign (n, _) | Var_assign (n, _)
      | Idx_sig_assign (n, _, _) | Idx_var_assign (n, _, _) -> [ n ]
      | If_s (branches, els) ->
        List.concat_map (fun (_, body) -> assigned_targets body) branches
        @ assigned_targets els
      | Case_s (_, alts) ->
        List.concat_map (fun (_, body) -> assigned_targets body) alts
      | For_s (_, _, _, body) -> assigned_targets body
      | Proc_call _ | Return_s _ | Null_s | Comment _ -> [])
    stmts

let dedup names = List.sort_uniq String.compare names

let array_write ctx n i acc =
  if expr_is_constant i then acc
  else
    match lookup ctx.env n with
    | Some e when e.e_is_array ->
      let key = (e.e_depth, e.e_width, 0) in
      { acc with wr_t = add_key key 1 acc.wr_t; wr_c = add_key key 1 acc.wr_c }
    | Some _ | None -> acc

let rec analyse_stmt ctx stmt =
  match stmt with
  | Sig_assign (_, e) | Return_s e -> acc_of_expr ctx e
  | Var_assign (n, e) ->
    (* Reading this variable later in the same cycle continues the
       combinational chain ending here. *)
    let acc = acc_of_expr ctx e in
    Hashtbl.replace ctx.depths n acc.crit;
    acc
  | Idx_sig_assign (n, i, e) ->
    let acc = merge_seq (acc_of_expr ctx i) (acc_of_expr ctx e) in
    array_write ctx n i acc
  | Idx_var_assign (n, i, e) ->
    (* Array elements are not depth-tracked: a same-cycle read of
       another element is independent, and element-level tracking
       would be needed to tell them apart. *)
    let acc = merge_seq (acc_of_expr ctx i) (acc_of_expr ctx e) in
    array_write ctx n i acc
  | Null_s | Comment _ -> empty_acc
  | Proc_call (p, args) ->
    let args_acc =
      List.fold_left (fun acc e -> merge_seq acc (acc_of_expr ctx e)) empty_acc args
    in
    (match Hashtbl.find_opt ctx.funcs p with
    | Some (body_acc, _) -> merge_seq args_acc body_acc
    | None -> args_acc)
  | For_s (_, lo, hi, body) ->
    let body_acc = analyse_stmts ctx body in
    let n = Stdlib.max 0 (hi - lo + 1) in
    {
      ops_t = scale n body_acc.ops_t;
      ops_c = scale n body_acc.ops_c;
      rd_t = scale n body_acc.rd_t;
      rd_c = scale n body_acc.rd_c;
      wr_t = scale n body_acc.wr_t;
      wr_c = scale n body_acc.wr_c;
      mux = body_acc.mux * n;
      crit = body_acc.crit;
    }
  | If_s (branches, els) ->
    let cond_delay =
      List.fold_left
        (fun d (cond, _) -> Stdlib.max d (expr_delay ctx cond))
        0.0 branches
    in
    let cond_acc =
      List.fold_left
        (fun acc (cond, _) -> merge_seq acc (acc_of_expr ctx cond))
        empty_acc branches
    in
    let bodies =
      List.map (fun (_, body) -> analyse_stmts ctx body) branches
      @ [ analyse_stmts ctx els ]
    in
    let body_acc = List.fold_left merge_seq empty_acc bodies in
    let n_branches = List.length branches + (if els = [] then 0 else 1) in
    let targets =
      dedup
        (List.concat_map (fun (_, body) -> assigned_targets body) branches
        @ assigned_targets els)
    in
    let mux_bits =
      Stdlib.max 0 (n_branches - 1)
      * List.fold_left (fun acc t -> acc + target_width ctx t) 0 targets
    in
    let acc = merge_seq cond_acc body_acc in
    {
      acc with
      mux = acc.mux + mux_bits;
      crit = Stdlib.max acc.crit (cond_delay +. 0.4);
    }
  | Case_s (sel, alts) ->
    let sel_acc = acc_of_expr ctx sel in
    let alt_bodies = List.map (fun (_, body) -> body) alts in
    (* Every alternative is a fresh clock cycle: variable chains do
       not cross state boundaries. *)
    let incoming = Hashtbl.copy ctx.depths in
    let alt_accs =
      List.map
        (fun body ->
          let ctx' = { ctx with depths = Hashtbl.copy incoming } in
          analyse_stmts ctx' body)
        alt_bodies
    in
    let body_acc = List.fold_left merge_alt empty_acc alt_accs in
    (* Per-register multiplexing: each target needs a mux over the
       alternatives that actually assign it. *)
    let per_target = Hashtbl.create 16 in
    List.iter
      (fun body ->
        List.iter
          (fun t ->
            Hashtbl.replace per_target t
              (1 + Option.value (Hashtbl.find_opt per_target t) ~default:0))
          (dedup (assigned_targets body)))
      alt_bodies;
    let mux_bits =
      Hashtbl.fold
        (fun t n acc -> acc + (Stdlib.max 0 (n - 1) * target_width ctx t))
        per_target 0
    in
    let acc = merge_seq sel_acc body_acc in
    { acc with mux = acc.mux + mux_bits }

and analyse_stmts ctx stmts =
  List.fold_left (fun acc s -> merge_seq acc (analyse_stmt ctx s)) empty_acc stmts

(* -- declarations ------------------------------------------------------ *)

let rec register_decl env funcs arrays (registers, array_bits) decl ~clocked =
  match decl with
  | Signal_d (n, t, _) | Variable_d (n, t, _) ->
    let is_array, depth, elem_width =
      match t with
      | Array_ref name -> (
        match Hashtbl.find_opt arrays name with
        | Some (len, w) -> (true, len, w)
        | None -> (false, 1, width_of_type env t))
      | Std_logic | Signed_v _ | Unsigned_v _ | Integer_range _ | Enum_ref _ ->
        (false, 1, width_of_type env t)
    in
    let bits = depth * elem_width in
    Hashtbl.replace env n { e_width = elem_width; e_is_array = is_array; e_depth = depth };
    if clocked then
      (registers + bits, if is_array then array_bits + bits else array_bits)
    else (registers, array_bits)
  | Constant_d (n, t, _) ->
    Hashtbl.replace env n
      { e_width = width_of_type env t; e_is_array = false; e_depth = 1 };
    (registers, array_bits)
  | Enum_d (n, literals) ->
    let rec bits v acc = if v <= 1 then acc else bits ((v + 1) / 2) (acc + 1) in
    Hashtbl.replace env n
      { e_width = Stdlib.max 1 (bits (List.length literals) 0);
        e_is_array = false;
        e_depth = 1 };
    (registers, array_bits)
  | Array_d (n, len, elem) ->
    Hashtbl.replace arrays n (len, width_of_type env elem);
    (registers, array_bits)
  | Function_d f ->
    List.iter
      (fun (pn, pt) ->
        Hashtbl.replace env pn
          { e_width = width_of_type env pt; e_is_array = false; e_depth = 1 })
      f.f_params;
    ignore
      (List.fold_left
         (fun acc d -> register_decl env funcs arrays acc d ~clocked:false)
         (0, 0) f.f_decls);
    let fctx = { env; funcs; depths = Hashtbl.create 8 } in
    let body_acc = analyse_stmts fctx f.f_body in
    Hashtbl.replace funcs f.f_name (body_acc, width_of_type env f.f_ret);
    (registers, array_bits)
  | Procedure_d p ->
    List.iter
      (fun (pn, _, pt) ->
        Hashtbl.replace env pn
          { e_width = width_of_type env pt; e_is_array = false; e_depth = 1 })
      p.p_params;
    ignore
      (List.fold_left
         (fun acc d -> register_decl env funcs arrays acc d ~clocked:false)
         (0, 0) p.p_decls);
    let pctx = { env; funcs; depths = Hashtbl.create 8 } in
    Hashtbl.replace funcs p.p_name (analyse_stmts pctx p.p_body, 0);
    (registers, array_bits)

let rec max_case_alts stmts =
  List.fold_left
    (fun acc s ->
      match s with
      | Case_s (_, alts) ->
        Stdlib.max acc
          (List.fold_left
             (fun a (_, body) -> Stdlib.max a (max_case_alts body))
             (List.length alts) alts)
      | If_s (branches, els) ->
        let inner =
          List.fold_left
            (fun a (_, body) -> Stdlib.max a (max_case_alts body))
            (max_case_alts els) branches
        in
        Stdlib.max acc inner
      | For_s (_, _, _, body) -> Stdlib.max acc (max_case_alts body)
      | Sig_assign _ | Var_assign _ | Idx_sig_assign _ | Idx_var_assign _
      | Proc_call _ | Return_s _ | Null_s | Comment _ -> acc)
    0 stmts

let of_design design =
  let env : (string, entry) Hashtbl.t = Hashtbl.create 64 in
  let arrays : (string, int * int) Hashtbl.t = Hashtbl.create 8 in
  let funcs : (string, acc * int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun p ->
      Hashtbl.replace env p.port_name
        { e_width = width_of_type env p.ptype; e_is_array = false; e_depth = 1 })
    design.entity.ports;
  let clocked_targets =
    design.architecture.processes
    |> List.filter (fun p -> p.clocked)
    |> List.concat_map (fun p -> assigned_targets p.proc_body)
    |> dedup
  in
  ignore
    (List.fold_left
       (fun acc d -> register_decl env funcs arrays acc d ~clocked:false)
       (0, 0) design.architecture.arch_decls);
  let arch_reg_bits, arch_array_bits =
    List.fold_left
      (fun (regs, arrs) d ->
        match d with
        | Signal_d (n, t, _) when List.mem n clocked_targets ->
          let bits, is_array =
            match t with
            | Array_ref name -> (
              match Hashtbl.find_opt arrays name with
              | Some (len, w) -> (len * w, true)
              | None -> (width_of_type env t, false))
            | Std_logic | Signed_v _ | Unsigned_v _ | Integer_range _
            | Enum_ref _ -> (width_of_type env t, false)
          in
          (regs + bits, if is_array then arrs + bits else arrs)
        | Signal_d _ | Variable_d _ | Constant_d _ | Enum_d _ | Array_d _
        | Function_d _ | Procedure_d _ -> (regs, arrs))
      (0, 0) design.architecture.arch_decls
  in
  let var_reg_bits, var_array_bits, body_acc, state_count =
    List.fold_left
      (fun (regs, arrs, acc, states) p ->
        let regs', arrs' =
          List.fold_left
            (fun bits d -> register_decl env funcs arrays bits d ~clocked:p.clocked)
            (0, 0) p.proc_decls
        in
        let p_acc =
          analyse_stmts { env; funcs; depths = Hashtbl.create 16 } p.proc_body
        in
        let p_states = if p.clocked then max_case_alts p.proc_body else 0 in
        (regs + regs', arrs + arrs', merge_seq acc p_acc, Stdlib.max states p_states))
      (0, 0, empty_acc, 0) design.architecture.processes
  in
  {
    register_bits = arch_reg_bits + var_reg_bits;
    array_bits = arch_array_bits + var_array_bits;
    state_count;
    ops_total = ops_of_map body_acc.ops_t;
    ops_shared = ops_of_map body_acc.ops_c;
    reads_total = ports_of_map body_acc.rd_t;
    reads_shared = ports_of_map body_acc.rd_c;
    writes_total = ports_of_map body_acc.wr_t;
    writes_shared = ports_of_map body_acc.wr_c;
    mux2_bits = body_acc.mux;
    critical_path_ns = body_acc.crit;
    process_count = List.length design.architecture.processes;
  }
