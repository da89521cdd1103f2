module I = Interval
module D = Diagnostic

(* ------------------------------------------------------------------ *)
(* Slot table and abstract state                                       *)
(* ------------------------------------------------------------------ *)

(* Every scalar name of the analysed module or FSM (port, variable,
   subprogram parameter or local, For iterator) owns one slot of
   [env.vars]; every declared array owns one slot of [env.arrs]. A
   slot no binding is live for holds top. Arrays are summarised by one
   element interval (weak updates only), which is exact for the
   all-zero initial state and sound for every partial write pattern.
   Slot arrays are never mutated once built: an update copies, so
   environments share freely and an unchanged slot keeps its value. *)
type env = { vars : I.t array; arrs : I.t array }

type var_info = {
  slot : int;
  decl : Hir.ty option;  (* module variable or output port *)
  input : Hir.ty option;  (* input port: fresh nondeterministic reads *)
}

type arr_info = { aslot : int; ety : Hir.ty; len : int }

type ctx = {
  var_tab : (string, var_info) Hashtbl.t;
  arr_tab : (string, arr_info) Hashtbl.t;
  var_names : string array;  (* slot -> name *)
  subs : (string, Hir.subprogram) Hashtbl.t;
  summary : string -> Dataflow.summary;
}

(* [step old next] for every slot. Slots that hold the same interval on
   both sides keep it without a call ([join a a = a] and
   [widen a a = a]); the result is [a] itself, physically, when no slot
   changed, so callers detect a fixpoint with [==]. *)
let combine step (a : I.t array) (b : I.t array) =
  let r = ref a in
  for i = 0 to Array.length a - 1 do
    let x = a.(i) and y = b.(i) in
    if x != y then begin
      let z = step x y in
      if not (I.equal z x) then begin
        if !r == a then r := Array.copy a;
        !r.(i) <- z
      end
    end
  done;
  !r

let combine_env step a b =
  let vars = combine step a.vars b.vars and arrs = combine step a.arrs b.arrs in
  if vars == a.vars && arrs == a.arrs then a else { vars; arrs }

let join_env a b = combine_env I.join a b
let widen_env a b = combine_env I.widen a b

(* The FSM worklist's delayed widening: [widen old (join old next)]. *)
let join_widen_env a b = combine_env (fun x y -> I.widen x (I.join x y)) a b

let join_opt a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some a, Some b -> Some (join_env a b)

let set_slot (arr : I.t array) i v =
  if I.equal arr.(i) v then arr
  else
    let a = Array.copy arr in
    a.(i) <- v;
    a

let set_var env i v =
  let vars = set_slot env.vars i v in
  if vars == env.vars then env else { env with vars }

let set_arr env i v =
  let arrs = set_slot env.arrs i v in
  if arrs == env.arrs then env else { env with arrs }

(* ------------------------------------------------------------------ *)
(* Context                                                             *)
(* ------------------------------------------------------------------ *)

(* Bindings currently in scope (subprogram frames and For loop
   variables, as slots) and the innermost call's declared local types
   — mirrors Interp's [locals] stack and per-call [local_types]
   exactly. *)
type scope = { bound : int list; ltys : (int * Hir.ty) list }

let scope0 = { bound = []; ltys = [] }

let is_bound sc slot = List.mem slot sc.bound

(* Joined observations per module variable and array slot (analyse
   and optimise). *)
type recorder = {
  wrapped_var : I.t option array;  (* post-wrap stores per module var *)
  raw_var : I.t option array;  (* pre-wrap assigned values *)
  wrapped_arr : I.t option array;
  raw_arr : I.t option array;
}

(* Observations keyed by syntactic location (lint only), so facts that
   must hold on *every* visit (call sites, loop iterations) are only
   reported when the join still proves them. Statement paths are
   formatted only while these are kept. *)
type sites = {
  assigns : (string, I.t * Hir.ty option * bool) Hashtbl.t;
  branches : (string, I.t * [ `If | `While ]) Hashtbl.t;
  indices : (string * string, I.t * int) Hashtbl.t;
}

let fresh_recorder ctx =
  let nv = Array.length ctx.var_names and na = Hashtbl.length ctx.arr_tab in
  {
    wrapped_var = Array.make nv None;
    raw_var = Array.make nv None;
    wrapped_arr = Array.make na None;
    raw_arr = Array.make na None;
  }

let fresh_sites () =
  {
    assigns = Hashtbl.create 64;
    branches = Hashtbl.create 32;
    indices = Hashtbl.create 32;
  }

type st = {
  ctx : ctx;
  rec_ : recorder option;
  sites : sites option;
  mutable depth : int;
}

let joined_add tab i v =
  tab.(i) <- (match tab.(i) with None -> Some v | Some o -> Some (I.join o v))

let rec_store st slot ~raw ~wrapped =
  match st.rec_ with
  | None -> ()
  | Some r ->
    joined_add r.raw_var slot raw;
    joined_add r.wrapped_var slot wrapped

let rec_arr_store st slot ~raw ~wrapped =
  match st.rec_ with
  | None -> ()
  | Some r ->
    joined_add r.raw_arr slot raw;
    joined_add r.wrapped_arr slot wrapped

(* Joins [iv] into the interval of [key]'s entry; the first
   observation also fixes the entry's [extra]. *)
let site_add tab key iv extra =
  Hashtbl.replace tab key
    (match Hashtbl.find_opt tab key with
    | None -> (iv, extra)
    | Some (o, x) -> (I.join o iv, x))

let rec_assign st path iv ty is_const =
  match st.sites with
  | None -> ()
  | Some r ->
    let v =
      match Hashtbl.find_opt r.assigns path with
      | None -> (iv, ty, is_const)
      | Some (o, oty, oc) -> (I.join o iv, oty, oc && is_const)
    in
    Hashtbl.replace r.assigns path v

(* Syntactic [Const] conditions are idioms, not findings. *)
let rec_branch st path (c : Hir.expr) iv kind =
  match (st.sites, c) with
  | None, _ | Some _, Const _ -> ()
  | Some r, _ -> site_add r.branches path iv kind

let rec_index st path arr iv len =
  Option.iter (fun r -> site_add r.indices (path, arr) iv len) st.sites

(* Statement paths name diagnostics; nothing else reads them. *)
let sub_path st path seg =
  match st.sites with None -> path | Some _ -> path ^ seg

let stmt_path st path i =
  match st.sites with None -> path | Some _ -> Printf.sprintf "%s/%d" path i

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)
(* ------------------------------------------------------------------ *)

let wrap_opt ty iv = match ty with None -> iv | Some ty -> I.wrap_ty ty iv

let is_cmp : Hir.binop -> bool = function
  | Eq | Ne | Lt | Le | Gt | Ge -> true
  | _ -> false

let negate_cmp : Hir.binop -> Hir.binop = function
  | Eq -> Ne
  | Ne -> Eq
  | Lt -> Ge
  | Le -> Gt
  | Gt -> Le
  | Ge -> Lt
  | op -> op

let never_nonzero iv = I.is_singleton iv = Some 0
let may_be_zero iv = I.contains iv 0

let rec_depth_limit = 24

(* Push a refined interval back onto a variable operand, if it is
   refinable (never input ports — their reads are independent). *)
let push_refinement st sc env e iv =
  match e with
  | Hir.Var x -> (
    let vi = Hashtbl.find st.ctx.var_tab x in
    if vi.input <> None && not (is_bound sc vi.slot) then env
    else
      match I.meet env.vars.(vi.slot) iv with
      | Some m -> set_var env vi.slot m
      | None -> env (* contradiction: path is dead anyway; stay sound *))
  | _ -> env

(* A loop's fixpoint. [step head] walks the body once from [head] and
   returns what flows back to the top; that is joined into the head,
   widened from the third iteration on, until it changes nothing.
   Returns the stable head and what its walk returned. That walk was
   the last one, so whatever it recorded is final: no loop walks its
   body again once it has settled. *)
let fixpoint step env =
  let rec fix n head =
    let out = step head in
    match out with
    | None -> (head, out)
    | Some b ->
      let j = join_env head b in
      if j == head then (head, out)
      else fix (n + 1) (if n >= 2 then widen_env head j else j)
  in
  fix 0 env

(* ------------------------------------------------------------------ *)
(* The value evaluator and the engine. The evaluator gives an
   expression's interval and whether it is side-effect- and
   crash-free: no input read, no call, every array index proved in
   bounds. [calls] says what it does at a call. The engine follows
   the call into the callee, whose walk may change the environment,
   and records index facts under the statement path. Branch
   refinement, FSM branch conditions and the optimiser's folds are
   pure queries: a call is top, and nothing is recorded. The engine
   computes environments and records facts; it builds no HIR.         *)
(* ------------------------------------------------------------------ *)

type calls = Opaque | Follow of string

(* A callee's exits so far: its joined return value and environment. *)
type retcell = (I.t * env) option ref

let join_exits a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some (v1, e1), Some (v2, e2) -> Some (I.join v1 v2, join_env e1 e2)

let ret_join (cell : retcell option) iv env =
  Option.iter (fun c -> c := join_exits !c (Some (iv, env))) cell

(* Returns the environment after [e]'s calls, its interval and its
   safety. *)
let rec value st sc calls env (e : Hir.expr) : env * I.t * bool =
  match e with
  | Const n -> (env, I.of_const n, true)
  | Var x -> (
    let vi = Hashtbl.find st.ctx.var_tab x in
    match vi.input with
    | Some ty when not (is_bound sc vi.slot) -> (env, I.of_ty ty, false)
    | _ -> (env, env.vars.(vi.slot), true))
  | Arr (a, i) -> (
    let env, iiv, isafe = value st sc calls env i in
    match Hashtbl.find_opt st.ctx.arr_tab a with
    | Some ai ->
      (match calls with
      | Follow path -> rec_index st path a iiv ai.len
      | Opaque -> ());
      let inb = iiv.I.lo >= 0 && iiv.I.hi <= ai.len - 1 in
      (env, env.arrs.(ai.aslot), isafe && inb)
    | None -> (env, I.top, false))
  | Bin (op, a, b) ->
    let env, aiv, sa = value st sc calls env a in
    let env, biv, sb = value st sc calls env b in
    (env, I.binop op aiv biv, sa && sb)
  | Un (op, a) ->
    let env, aiv, sa = value st sc calls env a in
    (env, I.unop op aiv, sa)
  | Call (f, args) -> (
    match calls with
    | Opaque -> (env, I.top, false)
    | Follow path ->
      let env, iv = call st sc path env f args in
      (env, iv, false))

(* Refine [env] under "cond evaluated truthy/falsy". [None] =
   assumption unsatisfiable (the guarded code is unreachable). *)
and refine st sc env cond truth : env option =
  match cond with
  | Hir.Const n -> if n <> 0 = truth then Some env else None
  | Hir.Bin (op, l, r) when is_cmp op ->
    let op = if truth then op else negate_cmp op in
    let _, liv, _ = value st sc Opaque env l in
    let _, riv, _ = value st sc Opaque env r in
    (match I.assume_cmp op liv riv with
    | None -> None
    | Some (liv', riv') ->
      let env = push_refinement st sc env l liv' in
      Some (push_refinement st sc env r riv'))
  | Hir.Var _ ->
    let op = if truth then Hir.Ne else Hir.Eq in
    refine st sc env (Hir.Bin (op, cond, Hir.Const 0)) true
  | Hir.Un (Hir.Bnot, e) ->
    (* lnot x is truthy iff x <> -1 *)
    let op = if truth then Hir.Ne else Hir.Eq in
    refine st sc env (Hir.Bin (op, e, Hir.Const (-1))) true
  | _ -> Some env

(* The environment in which condition [c], of interval [civ], takes
   its [truth] side; [None] when that side is never taken. *)
and arm st sc env c civ truth =
  if if truth then never_nonzero civ else not (may_be_zero civ) then None
  else refine st sc env c truth

and call st sc path env f args : env * I.t =
  let env, rev_ivs =
    List.fold_left
      (fun (env, ivs) a ->
        let env, iv, _ = value st sc (Follow path) env a in
        (env, iv :: ivs))
      (env, []) args
  in
  let arg_ivs = List.rev rev_ivs in
  match Hashtbl.find_opt st.ctx.subs f with
  | None -> (env, I.top)
  | Some sub ->
    let ret_default () =
      match sub.Hir.s_ret with Some ty -> I.of_ty ty | None -> I.of_const 0
    in
    if
      st.depth >= rec_depth_limit
      || List.length sub.Hir.s_params <> List.length arg_ivs
    then (havoc st env f, ret_default ())
    else (
      st.depth <- st.depth + 1;
      let slot n = (Hashtbl.find st.ctx.var_tab n).slot in
      let decls = sub.Hir.s_params @ sub.Hir.s_locals in
      let slots = List.map (fun (n, _) -> slot n) decls in
      let saved = List.map (fun i -> (i, env.vars.(i))) slots in
      let vars = Array.copy env.vars in
      List.iter2
        (fun (p, ty) iv -> vars.(slot p) <- I.wrap_ty ty iv)
        sub.Hir.s_params arg_ivs;
      List.iter (fun (l, _) -> vars.(slot l) <- I.of_const 0) sub.Hir.s_locals;
      let sc' =
        {
          bound = List.rev_append slots sc.bound;
          ltys = List.fold_left2 (fun m i (_, ty) -> (i, ty) :: m) [] slots decls;
        }
      in
      let ret : retcell = ref None in
      let out =
        exec st sc' ~ret:(Some ret) (sub_path st path ("/" ^ f))
          (Some { env with vars })
          sub.Hir.s_body
      in
      st.depth <- st.depth - 1;
      let restore e =
        let vars = Array.copy e.vars in
        List.iter (fun (i, v) -> vars.(i) <- v) saved;
        { e with vars }
      in
      match join_exits !ret (Option.map (fun e -> (I.of_const 0, e)) out) with
      | None ->
        (* callee provably never completes: the continuation is
           unreachable, any environment is sound *)
        (env, ret_default ())
      | Some (rv, e) ->
        let rv =
          match sub.Hir.s_ret with
          | Some ty -> I.wrap_ty ty rv
          | None -> I.of_const 0
        in
        (restore e, rv))

and havoc st env f =
  let su = st.ctx.summary f in
  let env =
    Dataflow.Names.fold
      (fun n env ->
        match Hashtbl.find_opt st.ctx.var_tab n with
        | Some { slot; decl = Some ty; _ } ->
          rec_store st slot ~raw:I.top ~wrapped:(I.of_ty ty);
          set_var env slot (I.of_ty ty)
        | Some { slot; decl = None; _ } -> set_var env slot I.top
        | None -> env)
      su.Dataflow.su_defs env
  in
  Dataflow.Names.fold
    (fun a env ->
      match Hashtbl.find_opt st.ctx.arr_tab a with
      | Some ai ->
        rec_arr_store st ai.aslot ~raw:I.top ~wrapped:(I.of_ty ai.ety);
        set_arr env ai.aslot (I.of_ty ai.ety)
      | None -> env)
    su.Dataflow.su_arr_defs env

and exec st sc ~ret path (env : env option) (stmts : Hir.stmt list) =
  let rec go i env = function
    | [] -> env
    | s :: rest -> (
      match env with
      | None -> None
      | Some e -> go (i + 1) (exec_stmt st sc ~ret (stmt_path st path i) e s) rest)
  in
  go 0 env stmts

(* [While (c, body)] entered with [env]: the loop's stable head, and
   [c] evaluated from it. *)
and while_loop st sc ~ret path env c body =
  let test head = value st sc (Follow path) head c in
  let head, _ =
    fixpoint
      (fun head ->
        let h1, civ, _ = test head in
        exec st sc ~ret (sub_path st path "/do") (arm st sc h1 c civ true) body)
      env
  in
  (head, test head)

(* [For (x, lo, hi, body)] entered with [env]: the scope binding [x],
   the body's entry from the loop's stable head, and the loop's exit. *)
and for_loop st sc ~ret path env x lo hi body =
  let slot = (Hashtbl.find st.ctx.var_tab x).slot in
  let sc = { sc with bound = slot :: sc.bound } and range = I.of_bounds lo hi in
  let enter h = Some (set_var h slot range) in
  let head, out =
    fixpoint (fun h -> exec st sc ~ret (sub_path st path "/do") (enter h) body) env
  in
  (sc, enter head, Option.map (fun o -> set_var o slot env.vars.(slot)) out)

and exec_stmt st sc ~ret path env (s : Hir.stmt) : env option =
  match s with
  | Assign (lv, rhs) -> (
    let is_const = match rhs with Hir.Const _ -> true | _ -> false in
    let env, riv, _ = value st sc (Follow path) env rhs in
    match lv with
    | Lv_var x ->
      let vi = Hashtbl.find st.ctx.var_tab x in
      let is_local = is_bound sc vi.slot in
      let ty =
        if is_local then List.assoc_opt vi.slot sc.ltys
        else match vi.decl with Some ty -> Some ty | None -> vi.input
      in
      rec_assign st path riv ty is_const;
      let wrapped = wrap_opt ty riv in
      if (not is_local) && vi.decl <> None then
        rec_store st vi.slot ~raw:riv ~wrapped;
      Some (set_var env vi.slot wrapped)
    | Lv_arr (a, i) -> (
      let env, iiv, _ = value st sc (Follow path) env i in
      match Hashtbl.find_opt st.ctx.arr_tab a with
      | None -> None (* unknown array: certain runtime error *)
      | Some ai ->
        rec_index st path a iiv ai.len;
        rec_assign st path riv (Some ai.ety) is_const;
        if iiv.I.hi < 0 || iiv.I.lo > ai.len - 1 then None
        else (
          let wrapped = I.wrap_ty ai.ety riv in
          rec_arr_store st ai.aslot ~raw:riv ~wrapped;
          let prev = env.arrs.(ai.aslot) in
          Some (set_arr env ai.aslot (I.join prev wrapped)))))
  | If (c, t, e) ->
    let env, civ, _ = value st sc (Follow path) env c in
    rec_branch st path c civ `If;
    join_opt
      (exec st sc ~ret (sub_path st path "/then") (arm st sc env c civ true) t)
      (exec st sc ~ret (sub_path st path "/else") (arm st sc env c civ false) e)
  | While (c, body) ->
    let _, (h1, civ, _) = while_loop st sc ~ret path env c body in
    rec_branch st path c civ `While;
    arm st sc h1 c civ false
  | For (_, lo, hi, _) when lo > hi -> Some env
  | For (x, lo, hi, body) ->
    let _, _, out = for_loop st sc ~ret path env x lo hi body in
    out
  | Wait -> Some env
  | Call_p (f, args) -> Some (fst (call st sc path env f args))
  | Return None ->
    ret_join ret (I.of_const 0) env;
    None
  | Return (Some e) ->
    let env, riv, _ = value st sc (Follow path) env e in
    ret_join ret riv env;
    None

(* ------------------------------------------------------------------ *)
(* Slot tables                                                         *)
(* ------------------------------------------------------------------ *)

let rec expr_names add (e : Hir.expr) =
  match e with
  | Const _ -> ()
  | Var x -> add x
  | Arr (_, i) | Un (_, i) -> expr_names add i
  | Bin (_, a, b) ->
    expr_names add a;
    expr_names add b
  | Call (_, args) -> List.iter (expr_names add) args

let rec stmt_names add (s : Hir.stmt) =
  match s with
  | Assign (lv, e) ->
    (match lv with Lv_var x -> add x | Lv_arr (_, i) -> expr_names add i);
    expr_names add e
  | If (c, t, e) ->
    expr_names add c;
    List.iter (stmt_names add) t;
    List.iter (stmt_names add) e
  | While (c, body) ->
    expr_names add c;
    List.iter (stmt_names add) body
  | For (x, _, _, body) ->
    add x;
    List.iter (stmt_names add) body
  | Wait -> ()
  | Call_p (_, args) -> List.iter (expr_names add) args
  | Return e -> Option.iter (expr_names add) e

(* [decls] and [inputs] are applied in order, a later declaration of a
   name overriding an earlier one. [scan] reports every name the
   analysed code binds, reads or writes: For iterators are declared
   nowhere else, and lint also runs on modules that fail validation,
   whose undeclared names start at top. *)
let make_ctx ~decls ~inputs ~arrays ~subs ~summary ~scan =
  let var_tab = Hashtbl.create 64 in
  let info n =
    match Hashtbl.find_opt var_tab n with
    | Some vi -> vi
    | None ->
      let vi = { slot = Hashtbl.length var_tab; decl = None; input = None } in
      Hashtbl.replace var_tab n vi;
      vi
  in
  List.iter
    (fun (n, ty) -> Hashtbl.replace var_tab n { (info n) with decl = Some ty })
    decls;
  List.iter
    (fun (n, ty) -> Hashtbl.replace var_tab n { (info n) with input = Some ty })
    inputs;
  scan (fun n -> ignore (info n));
  let var_names = Array.make (Hashtbl.length var_tab) "" in
  Hashtbl.iter (fun n vi -> var_names.(vi.slot) <- n) var_tab;
  let arr_tab = Hashtbl.create 16 in
  List.iter
    (fun (n, ety, len) ->
      let aslot =
        match Hashtbl.find_opt arr_tab n with
        | Some ai -> ai.aslot
        | None -> Hashtbl.length arr_tab
      in
      Hashtbl.replace arr_tab n { aslot; ety; len })
    arrays;
  let sub_tab = Hashtbl.create 8 in
  List.iter
    (fun (s : Hir.subprogram) -> Hashtbl.replace sub_tab s.Hir.s_name s)
    subs;
  { var_tab; arr_tab; var_names; subs = sub_tab; summary }

let build_ctx (md : Hir.module_def) =
  let ports dir =
    List.filter_map
      (fun (n, d, ty) -> if d = dir then Some (n, ty) else None)
      md.Hir.m_ports
  in
  make_ctx
    ~decls:(ports Hir.Pout @ md.Hir.m_vars)
    ~inputs:(ports Hir.Pin) ~arrays:md.Hir.m_arrays ~subs:md.Hir.m_subprograms
    ~summary:(Dataflow.summaries md)
    ~scan:(fun add ->
      List.iter (stmt_names add) md.Hir.m_body;
      List.iter
        (fun (s : Hir.subprogram) ->
          List.iter (fun (n, _) -> add n) (s.Hir.s_params @ s.Hir.s_locals);
          List.iter (stmt_names add) s.Hir.s_body)
        md.Hir.m_subprograms)

let init_env ctx =
  {
    vars =
      Array.map
        (fun n ->
          match (Hashtbl.find ctx.var_tab n).decl with
          | Some _ -> I.of_const 0
          | None -> I.top)
        ctx.var_names;
    arrs = Array.make (Hashtbl.length ctx.arr_tab) (I.of_const 0);
  }

(* The stable head of the implicit process loop (SC_CTHREAD repeats
   forever: end-of-body state flows back to the top). The fixpoint's
   last walk starts from it, so the recordings cover every
   activation. *)
let run st (md : Hir.module_def) =
  let path = md.Hir.m_name ^ "/body" in
  fst
    (fixpoint
       (fun head -> exec st scope0 ~ret:None path (Some head) md.Hir.m_body)
       (init_env st.ctx))

type result = {
  var_ranges : (string * Interval.t) list;
  raw_ranges : (string * Interval.t) list;
  arr_ranges : (string * Interval.t) list;
  port_ranges : (string * Interval.t) list;
}

let recorded ctx tab name = tab.((Hashtbl.find ctx.var_tab name).slot)

let analyse (md : Hir.module_def) : result =
  let ctx = build_ctx md in
  let r = fresh_recorder ctx in
  let st = { ctx; rec_ = Some r; sites = None; depth = 0 } in
  ignore (run st md);
  let zero = I.of_const 0 in
  let with0 = function None -> zero | Some v -> I.join zero v in
  let outs =
    List.filter_map
      (fun (n, dir, _) -> match dir with Hir.Pout -> Some n | Hir.Pin -> None)
      md.Hir.m_ports
  in
  let raw =
    List.filter_map
      (fun i -> Option.map (fun v -> (ctx.var_names.(i), v)) r.raw_var.(i))
      (List.init (Array.length ctx.var_names) Fun.id)
  in
  {
    var_ranges =
      List.map
        (fun n -> (n, with0 (recorded ctx r.wrapped_var n)))
        (List.map fst md.Hir.m_vars @ outs);
    raw_ranges = List.sort (fun (a, _) (b, _) -> String.compare a b) raw;
    arr_ranges =
      List.map
        (fun (n, _, _) ->
          (n, with0 r.wrapped_arr.((Hashtbl.find ctx.arr_tab n).aslot)))
        md.Hir.m_arrays;
    port_ranges =
      List.filter_map
        (fun n -> Option.map (fun v -> (n, v)) (recorded ctx r.wrapped_var n))
        outs;
  }

(* ------------------------------------------------------------------ *)
(* Diagnostics                                                         *)
(* ------------------------------------------------------------------ *)

let pp_ty (ty : Hir.ty) =
  Printf.sprintf "%s%d" (if ty.Hir.signed then "int" else "uint") ty.Hir.width

let lint (md : Hir.module_def) : D.t list =
  let ctx = build_ctx md in
  let r = fresh_sites () in
  let st = { ctx; rec_ = None; sites = Some r; depth = 0 } in
  ignore (run st md);
  let ds = ref [] in
  let add d = ds := d :: !ds in
  Hashtbl.iter
    (fun path (iv, ty, is_const) ->
      match ty with
      | Some ty when (not is_const) && ty.Hir.width < 62 ->
        if I.meet iv (I.of_ty ty) = None then
          add
            (D.warning ~code:"W018" ~path
               "assigned value %s never fits %s: the store always truncates"
               (I.to_string iv) (pp_ty ty))
      | _ -> ())
    r.assigns;
  Hashtbl.iter
    (fun path (iv, kind) ->
      let what = match kind with `If -> "branch" | `While -> "loop" in
      if not (may_be_zero iv) then
        add
          (D.warning ~code:"W019" ~path
             "%s condition %s is always true" what (I.to_string iv))
      else if never_nonzero iv then
        add
          (D.warning ~code:"W019" ~path "%s condition is always false" what))
    r.branches;
  Hashtbl.iter
    (fun (path, arr) (iv, len) ->
      if iv.I.hi < 0 || iv.I.lo > len - 1 then
        add
          (D.error ~code:"E020" ~path
             "index %s of array %s is always outside [0, %d]" (I.to_string iv)
             arr (len - 1))
      else if iv.I.lo < 0 || iv.I.hi > len - 1 then
        add
          (D.warning ~code:"W021" ~path
             "index %s of array %s may leave [0, %d]" (I.to_string iv) arr
             (len - 1)))
    r.indices;
  List.sort_uniq D.compare !ds

(* ------------------------------------------------------------------ *)
(* Optimiser                                                           *)
(* ------------------------------------------------------------------ *)

let narrow_ty (ty : Hir.ty) (raw : I.t option) =
  match raw with
  | None ->
    (* never stored: the declaration only ever holds its reset 0 *)
    if ty.Hir.width > 1 then { ty with Hir.width = 1 } else ty
  | Some raw ->
    let lo = Stdlib.min raw.I.lo 0 and hi = Stdlib.max raw.I.hi 0 in
    let range = I.of_bounds lo hi in
    if ty.Hir.signed then
      let w = I.min_width ~signed:true range in
      if w < ty.Hir.width then { ty with Hir.width = w } else ty
    else if lo >= 0 then
      let w = I.min_width ~signed:false range in
      if w < ty.Hir.width then { ty with Hir.width = w } else ty
    else ty (* unsigned declaration wrapping negatives: load-bearing *)

(* Only fold to a literal the VHDL layer can size sanely. *)
let foldable_const k = k > -(1 lsl 61) && k < 1 lsl 61

(* The rewrite, one walk of its own from the stable process head. The
   module is inlined, so no call has a callee to follow: the pure
   evaluation the folds use gives the engine's values. *)
let rec folded st sc env (e : Hir.expr) : Hir.expr =
  let _, iv, safe = value st sc Opaque env e in
  match (e, I.is_singleton iv) with
  | Const _, _ -> e
  | _, Some k when safe && foldable_const k -> Const k
  | Var _, _ -> e
  | Arr (a, i), _ -> Arr (a, folded st sc env i)
  | Bin (op, a, b), _ -> Bin (op, folded st sc env a, folded st sc env b)
  | Un (op, a), _ -> Un (op, folded st sc env a)
  | Call (f, args), _ -> Call (f, List.map (folded st sc env) args)

(* Statements after an unreachable point stay as they are. *)
let rec rewrite st sc env stmts : env option * Hir.stmt list =
  match (env, stmts) with
  | _, [] -> (env, [])
  | None, _ -> (None, stmts)
  | Some e, s :: rest ->
    let env, s' = rewrite_stmt st sc e s in
    let out, rest' = rewrite st sc env rest in
    (out, s' @ rest')

(* A safe condition proved one-sided drops the arm never taken unless
   that arm holds a [Wait], and a While never entered goes. A loop's
   body is rewritten from the loop's own stable head. *)
and rewrite_stmt st sc env (s : Hir.stmt) : env option * Hir.stmt list =
  let fold = folded st sc env in
  let step s' = (exec_stmt st sc ~ret:None "" env s, [ s' ]) in
  match s with
  | Assign (Lv_var x, rhs) -> step (Hir.Assign (Lv_var x, fold rhs))
  | Assign (Lv_arr (a, i), rhs) -> step (Hir.Assign (Lv_arr (a, fold i), fold rhs))
  | Call_p (f, args) -> step (Hir.Call_p (f, List.map fold args))
  | Return e -> step (Hir.Return (Option.map fold e))
  | Wait -> step s
  | If (c, t, e) -> (
    let _, civ, csafe = value st sc Opaque env c in
    let t_in = arm st sc env c civ true and e_in = arm st sc env c civ false in
    let t_out, t' = rewrite st sc t_in t and e_out, e' = rewrite st sc e_in e in
    let out = join_opt t_out e_out in
    match (t_in, e_in) with
    | Some _, None when csafe && not (Hir.stmts_contain_wait e) -> (out, t')
    | None, Some _ when csafe && not (Hir.stmts_contain_wait t) -> (out, e')
    | _ -> (out, [ Hir.If (fold c, t', e') ]))
  | While (c, body) ->
    let head, (h1, civ, csafe) = while_loop st sc ~ret:None "" env c body in
    let _, body' = rewrite st sc (arm st sc h1 c civ true) body in
    ( arm st sc h1 c civ false,
      if csafe && never_nonzero civ then []
      else [ Hir.While (folded st sc head c, body') ] )
  | For (_, lo, hi, _) when lo > hi -> (Some env, [])
  | For (x, lo, hi, body) ->
    let sc', entry, out = for_loop st sc ~ret:None "" env x lo hi body in
    (out, [ Hir.For (x, lo, hi, snd (rewrite st sc' entry body)) ])

let optimise (md : Hir.module_def) : Hir.module_def =
  let inlined =
    if md.Hir.m_subprograms <> [] then Inline.run md else md
  in
  let ctx = build_ctx inlined in
  let r = fresh_recorder ctx in
  let head = run { ctx; rec_ = Some r; sites = None; depth = 0 } inlined in
  let st = { ctx; rec_ = None; sites = None; depth = 0 } in
  let _, body' = rewrite st scope0 (Some head) inlined.Hir.m_body in
  let m_vars' =
    List.map
      (fun (n, ty) -> (n, narrow_ty ty (recorded ctx r.raw_var n)))
      inlined.Hir.m_vars
  in
  let m_arrays' =
    List.map
      (fun (n, ty, len) ->
        (n, narrow_ty ty r.raw_arr.((Hashtbl.find ctx.arr_tab n).aslot), len))
      inlined.Hir.m_arrays
  in
  let md' =
    { inlined with Hir.m_body = body'; m_vars = m_vars'; m_arrays = m_arrays' }
  in
  match Hir.validate md' with Ok () -> md' | Error _ -> inlined

(* ------------------------------------------------------------------ *)
(* FSM-level analysis: value-reachability and pruning                  *)
(* ------------------------------------------------------------------ *)

let empty_summary =
  {
    Dataflow.su_uses = Dataflow.Names.empty;
    su_arr_uses = Dataflow.Names.empty;
    su_defs = Dataflow.Names.empty;
    su_arr_defs = Dataflow.Names.empty;
  }

let rec stmt_of_action = function
  | Fsm.Do (lv, e) -> Hir.Assign (lv, e)
  | Fsm.Do_if (c, a, b) ->
    Hir.If (c, List.map stmt_of_action a, List.map stmt_of_action b)

let fsm_ctx (fsm : Fsm.t) bodies =
  make_ctx
    ~decls:(fsm.Fsm.vars @ fsm.Fsm.outputs)
    ~inputs:fsm.Fsm.inputs ~arrays:fsm.Fsm.arrays ~subs:[]
    ~summary:(fun _ -> empty_summary)
    ~scan:(fun add ->
      Array.iter (List.iter (stmt_names add)) bodies;
      Array.iter
        (fun (s : Fsm.state) ->
          match s.Fsm.next with
          | Fsm.Branch (c, _, _) -> expr_names add c
          | Fsm.Goto _ -> ())
        fsm.Fsm.states)

(* Worklist abstract execution of the state machine. Entry is seeded
   with the all-zero reset state; the implicit repeat-forever edge is
   modelled by propagating into the entry like any other state.
   Returns each state's entry environment ([None]: never reached) and
   the environment after its actions on the last visit, which is the
   visit of its final entry environment ([None] also when the actions
   provably crash). *)
let fsm_envs (fsm : Fsm.t) =
  let bodies =
    Array.map (fun s -> List.map stmt_of_action s.Fsm.actions) fsm.Fsm.states
  in
  let ctx = fsm_ctx fsm bodies in
  let st = { ctx; rec_ = None; sites = None; depth = 0 } in
  let n = Array.length fsm.Fsm.states in
  let envs : env option array = Array.make n None in
  let posts : env option array = Array.make n None in
  let joins = Array.make n 0 in
  let queue = Queue.create () in
  let propagate j e =
    let merged =
      match envs.(j) with
      | None -> Some e
      | Some old ->
        let m = if joins.(j) > 3 then join_widen_env old e else join_env old e in
        if m == old then None else Some m
    in
    match merged with
    | None -> ()
    | Some m ->
      joins.(j) <- joins.(j) + 1;
      envs.(j) <- Some m;
      Queue.push j queue
  in
  if n > 0 then propagate fsm.Fsm.entry (init_env ctx);
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    match envs.(i) with
    | None -> ()
    | Some e -> (
      let out = exec st scope0 ~ret:None fsm.Fsm.fsm_name (Some e) bodies.(i) in
      posts.(i) <- out;
      match out with
      | None -> () (* actions provably crash: no successors *)
      | Some e -> (
        match fsm.Fsm.states.(i).Fsm.next with
        | Fsm.Goto j -> propagate j e
        | Fsm.Branch (c, a, b) ->
          let _, civ, _ = value st scope0 Opaque e c in
          Option.iter (propagate a) (arm st scope0 e c civ true);
          Option.iter (propagate b) (arm st scope0 e c civ false)))
  done;
  (envs, posts, st)

let lint_fsm (fsm : Fsm.t) : D.t list =
  let envs, _, _ = fsm_envs fsm in
  let syntactic = Fsm_lint.reachable fsm in
  let ds = ref [] in
  Array.iteri
    (fun i reached ->
      if reached && envs.(i) = None then
        ds :=
          D.warning ~code:"W022"
            ~path:(Printf.sprintf "%s/state-%d" fsm.Fsm.fsm_name i)
            "state is unreachable under value constraints"
          :: !ds)
    syntactic;
  List.sort_uniq D.compare !ds

let prune_fsm (fsm : Fsm.t) : Fsm.t =
  let envs, posts, st = fsm_envs fsm in
  let n = Array.length fsm.Fsm.states in
  if n = 0 then fsm
  else begin
    (* Decide each live state's next: a Branch collapses to Goto only
       when the analysis proves it one-sided AND the condition is
       side-effect- and crash-free (dropping its evaluation must not
       change input consumption or error behaviour). The condition is
       evaluated after the state's actions, so it is judged on the
       post-actions environment. *)
    let next' =
      Array.mapi
        (fun i (state : Fsm.state) ->
          match (state.Fsm.next, posts.(i)) with
          | Fsm.Branch (c, a, b), Some e ->
            let _, civ, csafe = value st scope0 Opaque e c in
            if csafe && never_nonzero civ then Fsm.Goto b
            else if csafe && not (may_be_zero civ) then Fsm.Goto a
            else state.Fsm.next
          | next, _ -> next)
        fsm.Fsm.states
    in
    (* Keep value-reached states, then close over the targets of
       whatever next-logic survives on kept states. *)
    let kept = Array.make n false in
    Array.iteri (fun i e -> if e <> None then kept.(i) <- true) envs;
    kept.(fsm.Fsm.entry) <- true;
    let changed = ref true in
    while !changed do
      changed := false;
      let mark j = if not kept.(j) then (kept.(j) <- true; changed := true) in
      Array.iteri
        (fun i nx ->
          if kept.(i) then
            match nx with
            | Fsm.Goto j -> mark j
            | Fsm.Branch (_, a, b) ->
              mark a;
              mark b)
        next'
    done;
    if Array.for_all Fun.id kept then
      { fsm with Fsm.states = Array.mapi (fun i s -> { s with Fsm.next = next'.(i) }) fsm.Fsm.states }
    else begin
      let remap = Array.make n (-1) in
      let count = ref 0 in
      Array.iteri
        (fun i k ->
          if k then (
            remap.(i) <- !count;
            incr count))
        kept;
      let states' = Array.make !count { Fsm.actions = []; next = Fsm.Goto 0 } in
      Array.iteri
        (fun i k ->
          if k then
            let nx =
              match next'.(i) with
              | Fsm.Goto j -> Fsm.Goto remap.(j)
              | Fsm.Branch (c, a, b) -> Fsm.Branch (c, remap.(a), remap.(b))
            in
            states'.(remap.(i)) <-
              { Fsm.actions = fsm.Fsm.states.(i).Fsm.actions; next = nx })
        kept;
      { fsm with Fsm.states = states'; entry = remap.(fsm.Fsm.entry) }
    end
  end
