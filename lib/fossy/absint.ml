module M = Map.Make (String)
module S = Set.Make (String)
module I = Interval
module D = Diagnostic

(* ------------------------------------------------------------------ *)
(* Abstract state                                                      *)
(* ------------------------------------------------------------------ *)

(* Missing key = top. Arrays are summarised by one element interval
   (weak updates only), which is exact for the all-zero initial state
   and sound for every partial write pattern. *)
type env = { vars : I.t M.t; arrs : I.t M.t }

let merge_with f a b =
  M.merge
    (fun _ x y -> match (x, y) with Some x, Some y -> Some (f x y) | _ -> None)
    a b

let join_env a b =
  { vars = merge_with I.join a.vars b.vars; arrs = merge_with I.join a.arrs b.arrs }

let widen_env a b =
  { vars = merge_with I.widen a.vars b.vars;
    arrs = merge_with I.widen a.arrs b.arrs }

let equal_env a b =
  M.equal I.equal a.vars b.vars && M.equal I.equal a.arrs b.arrs

let join_opt a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some a, Some b -> Some (join_env a b)

(* ------------------------------------------------------------------ *)
(* Context                                                             *)
(* ------------------------------------------------------------------ *)

type ctx = {
  var_ty : Hir.ty M.t;  (* module variables and output ports *)
  arr_ty : (Hir.ty * int) M.t;
  input_ty : Hir.ty M.t;  (* input ports: fresh nondeterministic reads *)
  subs : Hir.subprogram M.t;
  summary : string -> Dataflow.summary;
}

(* Local bindings currently in scope (subprogram frames and For loop
   variables) and the innermost call's declared local types — mirrors
   Interp's [locals] stack and per-call [local_types] exactly. *)
type scope = { bound : S.t; ltys : Hir.ty M.t }

let scope0 = { bound = S.empty; ltys = M.empty }

(* Joined observations, keyed by syntactic location so facts that
   must hold on *every* visit (call sites, loop iterations) are only
   reported when the join still proves them. *)
type recorder = {
  mutable wrapped_var : I.t M.t;  (* post-wrap stores per module var *)
  mutable raw_var : I.t M.t;  (* pre-wrap assigned values *)
  mutable wrapped_arr : I.t M.t;
  mutable raw_arr : I.t M.t;
  assigns : (string, I.t * Hir.ty option * bool) Hashtbl.t;
  branches : (string, I.t * [ `If | `While ]) Hashtbl.t;
  indices : (string * string, I.t * int) Hashtbl.t;
}

let fresh_recorder () =
  {
    wrapped_var = M.empty;
    raw_var = M.empty;
    wrapped_arr = M.empty;
    raw_arr = M.empty;
    assigns = Hashtbl.create 64;
    branches = Hashtbl.create 32;
    indices = Hashtbl.create 32;
  }

type st = { ctx : ctx; rec_ : recorder option; mutable depth : int }

let joined_add m k v =
  M.update k (function None -> Some v | Some o -> Some (I.join o v)) m

let rec_store st name ~raw ~wrapped =
  match st.rec_ with
  | None -> ()
  | Some r ->
    r.raw_var <- joined_add r.raw_var name raw;
    r.wrapped_var <- joined_add r.wrapped_var name wrapped

let rec_arr_store st name ~raw ~wrapped =
  match st.rec_ with
  | None -> ()
  | Some r ->
    r.raw_arr <- joined_add r.raw_arr name raw;
    r.wrapped_arr <- joined_add r.wrapped_arr name wrapped

let rec_assign st path iv ty is_const =
  match st.rec_ with
  | None -> ()
  | Some r ->
    let v =
      match Hashtbl.find_opt r.assigns path with
      | None -> (iv, ty, is_const)
      | Some (o, oty, oc) -> (I.join o iv, oty, oc && is_const)
    in
    Hashtbl.replace r.assigns path v

let rec_branch st path iv kind =
  match st.rec_ with
  | None -> ()
  | Some r ->
    let v =
      match Hashtbl.find_opt r.branches path with
      | None -> (iv, kind)
      | Some (o, k) -> (I.join o iv, k)
    in
    Hashtbl.replace r.branches path v

let rec_index st path arr iv len =
  match st.rec_ with
  | None -> ()
  | Some r ->
    let key = (path, arr) in
    let v =
      match Hashtbl.find_opt r.indices key with
      | None -> (iv, len)
      | Some (o, l) -> (I.join o iv, l)
    in
    Hashtbl.replace r.indices key v

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)
(* ------------------------------------------------------------------ *)

let var_iv env x = match M.find_opt x env.vars with Some v -> v | None -> I.top

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

(* Only fold to a literal the VHDL layer can size sanely. *)
let foldable_const k = k > -(1 lsl 61) && k < 1 lsl 61

let folded e iv safe =
  if not safe then e
  else
    match I.is_singleton iv with
    | Some k when foldable_const k -> (
      match e with Hir.Const _ -> e | _ -> Hir.Const k)
    | _ -> e

let rec_depth_limit = 24

(* ------------------------------------------------------------------ *)
(* Pure evaluation (no state change, no recording): used for branch
   refinement and for FSM branch conditions. Returns the interval and
   whether the expression is side-effect- and crash-free: no input
   read, no call, every array index proved in bounds.                  *)
(* ------------------------------------------------------------------ *)

let rec peval st sc env (e : Hir.expr) : I.t * bool =
  match e with
  | Const n -> (I.of_const n, true)
  | Var x ->
    if S.mem x sc.bound then (var_iv env x, true)
    else (
      match M.find_opt x st.ctx.input_ty with
      | Some ty -> (I.of_ty ty, false)
      | None -> (var_iv env x, true))
  | Arr (a, i) -> (
    let iiv, isafe = peval st sc env i in
    match M.find_opt a st.ctx.arr_ty with
    | Some (ety, len) ->
      let inb = iiv.I.lo >= 0 && iiv.I.hi <= len - 1 in
      let v = match M.find_opt a env.arrs with Some v -> v | None -> I.of_ty ety in
      (v, isafe && inb)
    | None -> (I.top, false))
  | Bin (op, a, b) ->
    let aiv, sa = peval st sc env a in
    let biv, sb = peval st sc env b in
    (I.binop op aiv biv, sa && sb)
  | Un (op, a) ->
    let aiv, sa = peval st sc env a in
    (I.unop op aiv, sa)
  | Call _ -> (I.top, false)

(* Push a refined interval back onto a variable operand, if it is
   refinable (never input ports — their reads are independent). *)
let push_refinement st sc env e iv =
  match e with
  | Hir.Var x when S.mem x sc.bound || not (M.mem x st.ctx.input_ty) -> (
    match I.meet (var_iv env x) iv with
    | Some m -> { env with vars = M.add x m env.vars }
    | None -> env (* contradiction: path is dead anyway; stay sound *))
  | _ -> env

(* Refine [env] under "cond evaluated truthy/falsy". [None] =
   assumption unsatisfiable (the guarded code is unreachable). *)
let rec refine st sc env cond truth : env option =
  match cond with
  | Hir.Const n -> if n <> 0 = truth then Some env else None
  | Hir.Bin (op, l, r) when is_cmp op ->
    let op = if truth then op else negate_cmp op in
    let liv, _ = peval st sc env l in
    let riv, _ = peval st sc env r in
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

(* ------------------------------------------------------------------ *)
(* The engine: evaluates, records facts, and rewrites in one walk.
   The rewritten statements are only meaningful when the walk starts
   from a loop-stable environment (callers re-walk after fixpoints);
   analysis-only callers simply discard them.                          *)
(* ------------------------------------------------------------------ *)

type retcell = (I.t * env) option ref

let ret_join (cell : retcell option) iv env =
  match cell with
  | None -> ()
  | Some c ->
    c :=
      (match !c with
      | None -> Some (iv, env)
      | Some (v, e) -> Some (I.join v iv, join_env e env))

let rec eval st sc path env (e : Hir.expr) : env * Hir.expr * I.t * bool =
  match e with
  | Const n -> (env, e, I.of_const n, true)
  | Var x ->
    if S.mem x sc.bound then
      let iv = var_iv env x in
      (env, folded e iv true, iv, true)
    else (
      match M.find_opt x st.ctx.input_ty with
      | Some ty -> (env, e, I.of_ty ty, false)
      | None ->
        let iv = var_iv env x in
        (env, folded e iv true, iv, true))
  | Arr (a, i) -> (
    let env, i', iiv, isafe = eval st sc path env i in
    match M.find_opt a st.ctx.arr_ty with
    | Some (ety, len) ->
      rec_index st path a iiv len;
      let inb = iiv.I.lo >= 0 && iiv.I.hi <= len - 1 in
      let v = match M.find_opt a env.arrs with Some v -> v | None -> I.of_ty ety in
      let safe = isafe && inb in
      (env, folded (Hir.Arr (a, i')) v safe, v, safe)
    | None -> (env, Hir.Arr (a, i'), I.top, false))
  | Bin (op, a, b) ->
    let env, a', aiv, sa = eval st sc path env a in
    let env, b', biv, sb = eval st sc path env b in
    let iv = I.binop op aiv biv in
    let safe = sa && sb in
    (env, folded (Hir.Bin (op, a', b')) iv safe, iv, safe)
  | Un (op, a) ->
    let env, a', aiv, sa = eval st sc path env a in
    let iv = I.unop op aiv in
    (env, folded (Hir.Un (op, a')) iv sa, iv, sa)
  | Call (f, args) ->
    let env, args', iv = call st sc path env f args in
    (env, Hir.Call (f, args'), iv, false)

and call st sc path env f args : env * Hir.expr list * I.t =
  let env, rev_args, rev_ivs =
    List.fold_left
      (fun (env, es, ivs) a ->
        let env, a', iv, _ = eval st sc path env a in
        (env, a' :: es, iv :: ivs))
      (env, [], []) args
  in
  let args' = List.rev rev_args and arg_ivs = List.rev rev_ivs in
  match M.find_opt f st.ctx.subs with
  | None -> (env, args', I.top)
  | Some sub ->
    let ret_default () =
      match sub.Hir.s_ret with Some ty -> I.of_ty ty | None -> I.of_const 0
    in
    if
      st.depth >= rec_depth_limit
      || List.length sub.Hir.s_params <> List.length arg_ivs
    then (havoc st env f, args', ret_default ())
    else (
      st.depth <- st.depth + 1;
      let names =
        List.map fst sub.Hir.s_params @ List.map fst sub.Hir.s_locals
      in
      let saved = List.map (fun n -> (n, M.find_opt n env.vars)) names in
      let vars =
        List.fold_left2
          (fun m (p, ty) iv -> M.add p (I.wrap_ty ty iv) m)
          env.vars sub.Hir.s_params arg_ivs
      in
      let vars =
        List.fold_left
          (fun m (l, _) -> M.add l (I.of_const 0) m)
          vars sub.Hir.s_locals
      in
      let sc' =
        {
          bound = List.fold_left (fun s n -> S.add n s) sc.bound names;
          ltys =
            List.fold_left
              (fun m (n, ty) -> M.add n ty m)
              M.empty
              (sub.Hir.s_params @ sub.Hir.s_locals);
        }
      in
      let ret : retcell = ref None in
      let out, _ =
        exec st sc' ~ret:(Some ret) (path ^ "/" ^ f)
          (Some { env with vars })
          sub.Hir.s_body
      in
      st.depth <- st.depth - 1;
      let restore e =
        {
          e with
          vars =
            List.fold_left
              (fun m (n, o) ->
                match o with Some v -> M.add n v m | None -> M.remove n m)
              e.vars saved;
        }
      in
      let fall =
        match out with Some e -> Some (I.of_const 0, e) | None -> None
      in
      let exits =
        match (!ret, fall) with
        | None, None -> None
        | Some x, None | None, Some x -> Some x
        | Some (v1, e1), Some (v2, e2) -> Some (I.join v1 v2, join_env e1 e2)
      in
      match exits with
      | None ->
        (* callee provably never completes: the continuation is
           unreachable, any environment is sound *)
        (env, args', ret_default ())
      | Some (rv, e) ->
        let rv =
          match sub.Hir.s_ret with
          | Some ty -> I.wrap_ty ty rv
          | None -> I.of_const 0
        in
        (restore e, args', rv))

and havoc st env f =
  let su = st.ctx.summary f in
  let vars =
    Dataflow.Names.fold
      (fun n m ->
        match M.find_opt n st.ctx.var_ty with
        | Some ty ->
          rec_store st n ~raw:I.top ~wrapped:(I.of_ty ty);
          M.add n (I.of_ty ty) m
        | None -> if M.mem n m then M.add n I.top m else m)
      su.Dataflow.su_defs env.vars
  in
  let arrs =
    Dataflow.Names.fold
      (fun a m ->
        match M.find_opt a st.ctx.arr_ty with
        | Some (ety, _) ->
          rec_arr_store st a ~raw:I.top ~wrapped:(I.of_ty ety);
          M.add a (I.of_ty ety) m
        | None -> m)
      su.Dataflow.su_arr_defs env.arrs
  in
  { vars; arrs }

and exec st sc ~ret path (env : env option) (stmts : Hir.stmt list) :
    env option * Hir.stmt list =
  let _, env, rev =
    List.fold_left
      (fun (i, env, acc) s ->
        let p = Printf.sprintf "%s/%d" path i in
        match env with
        | None -> (i + 1, None, s :: acc) (* unreachable: keep as-is *)
        | Some e ->
          let env', ss = exec_stmt st sc ~ret p e s in
          (i + 1, env', List.rev_append ss acc))
      (0, env, []) stmts
  in
  (env, List.rev rev)

and exec_stmt st sc ~ret path env (s : Hir.stmt) : env option * Hir.stmt list =
  match s with
  | Assign (lv, rhs) -> (
    let is_const = match rhs with Hir.Const _ -> true | _ -> false in
    let env, rhs', riv, _ = eval st sc path env rhs in
    match lv with
    | Lv_var x ->
      let is_local = S.mem x sc.bound in
      let ty =
        if is_local then M.find_opt x sc.ltys
        else
          match M.find_opt x st.ctx.var_ty with
          | Some ty -> Some ty
          | None -> M.find_opt x st.ctx.input_ty
      in
      rec_assign st path riv ty is_const;
      let wrapped = wrap_opt ty riv in
      if (not is_local) && M.mem x st.ctx.var_ty then
        rec_store st x ~raw:riv ~wrapped;
      ( Some { env with vars = M.add x wrapped env.vars },
        [ Hir.Assign (Lv_var x, rhs') ] )
    | Lv_arr (a, i) -> (
      let env, i', iiv, _ = eval st sc path env i in
      let s' = [ Hir.Assign (Hir.Lv_arr (a, i'), rhs') ] in
      match M.find_opt a st.ctx.arr_ty with
      | None -> (None, s') (* unknown array: certain runtime error *)
      | Some (ety, len) ->
        rec_index st path a iiv len;
        rec_assign st path riv (Some ety) is_const;
        if iiv.I.hi < 0 || iiv.I.lo > len - 1 then (None, s')
        else (
          let wrapped = I.wrap_ty ety riv in
          rec_arr_store st a ~raw:riv ~wrapped;
          let prev =
            match M.find_opt a env.arrs with
            | Some v -> v
            | None -> I.of_ty ety
          in
          ( Some { env with arrs = M.add a (I.join prev wrapped) env.arrs },
            s' ))))
  | If (c, t, e) ->
    let env, c', civ, csafe = eval st sc path env c in
    (match c with Hir.Const _ -> () | _ -> rec_branch st path civ `If);
    let t_reach = not (never_nonzero civ) in
    let e_reach = may_be_zero civ in
    let t_in = if t_reach then refine st sc env c true else None in
    let e_in = if e_reach then refine st sc env c false else None in
    let t_out, t' = exec st sc ~ret (path ^ "/then") t_in t in
    let e_out, e' = exec st sc ~ret (path ^ "/else") e_in e in
    let out = join_opt t_out e_out in
    if t_in <> None && e_in = None && csafe && not (Hir.stmts_contain_wait e)
    then (out, t')
    else if e_in <> None && t_in = None && csafe
            && not (Hir.stmts_contain_wait t)
    then (out, e')
    else (out, [ Hir.If (c', t', e') ])
  | While (c, body) ->
    let rec fix n head =
      let h1, _, civ, _ = eval st sc path head c in
      let body_in =
        if never_nonzero civ then None else refine st sc h1 c true
      in
      let body_out, _ = exec st sc ~ret (path ^ "/do") body_in body in
      match body_out with
      | None -> head
      | Some b ->
        let j = join_env head b in
        if equal_env j head then head
        else fix (n + 1) (if n >= 2 then widen_env head j else j)
    in
    let head = fix 0 env in
    let h1, c', civ, csafe = eval st sc path head c in
    (match c with Hir.Const _ -> () | _ -> rec_branch st path civ `While);
    let body_in = if never_nonzero civ then None else refine st sc h1 c true in
    let _, body' = exec st sc ~ret (path ^ "/do") body_in body in
    let exit_env =
      if may_be_zero civ then refine st sc h1 c false else None
    in
    if never_nonzero civ && csafe then (exit_env, [])
    else (exit_env, [ Hir.While (c', body') ])
  | For (iv_name, lo, hi, body) ->
    if lo > hi then (Some env, [])
    else
      let saved = M.find_opt iv_name env.vars in
      let sc' = { sc with bound = S.add iv_name sc.bound } in
      let with_iv e =
        { e with vars = M.add iv_name (I.of_bounds lo hi) e.vars }
      in
      let step h = fst (exec st sc' ~ret (path ^ "/do") (Some (with_iv h)) body) in
      let rec fix n head =
        match step head with
        | None -> head
        | Some b ->
          let j = join_env head b in
          if equal_env j head then head
          else fix (n + 1) (if n >= 2 then widen_env head j else j)
      in
      let head = fix 0 env in
      let out, body' =
        exec st sc' ~ret (path ^ "/do") (Some (with_iv head)) body
      in
      let out =
        match out with
        | None -> None
        | Some o ->
          Some
            {
              o with
              vars =
                (match saved with
                | Some v -> M.add iv_name v o.vars
                | None -> M.remove iv_name o.vars);
            }
      in
      (out, [ Hir.For (iv_name, lo, hi, body') ])
  | Wait -> (Some env, [ Hir.Wait ])
  | Call_p (f, args) ->
    let env, args', _ = call st sc path env f args in
    (Some env, [ Hir.Call_p (f, args') ])
  | Return e_opt -> (
    match e_opt with
    | None ->
      ret_join ret (I.of_const 0) env;
      (None, [ s ])
    | Some e ->
      let env, e', riv, _ = eval st sc path env e in
      ret_join ret riv env;
      (None, [ Hir.Return (Some e') ]))

(* ------------------------------------------------------------------ *)
(* Whole-module driver                                                 *)
(* ------------------------------------------------------------------ *)

let build_ctx (md : Hir.module_def) =
  let var_ty =
    List.fold_left
      (fun m (n, ty) -> M.add n ty m)
      (List.fold_left
         (fun m (n, dir, ty) ->
           match dir with Hir.Pout -> M.add n ty m | Hir.Pin -> m)
         M.empty md.Hir.m_ports)
      md.Hir.m_vars
  in
  let input_ty =
    List.fold_left
      (fun m (n, dir, ty) ->
        match dir with Hir.Pin -> M.add n ty m | Hir.Pout -> m)
      M.empty md.Hir.m_ports
  in
  let arr_ty =
    List.fold_left
      (fun m (n, ty, len) -> M.add n (ty, len) m)
      M.empty md.Hir.m_arrays
  in
  let subs =
    List.fold_left
      (fun m (s : Hir.subprogram) -> M.add s.Hir.s_name s m)
      M.empty md.Hir.m_subprograms
  in
  { var_ty; arr_ty; input_ty; subs; summary = Dataflow.summaries md }

let init_env ctx =
  {
    vars = M.map (fun _ -> I.of_const 0) ctx.var_ty;
    arrs = M.map (fun _ -> I.of_const 0) ctx.arr_ty;
  }

(* Fixpoint over the implicit process loop (SC_CTHREAD repeats
   forever: end-of-body state flows back to the top), then one final
   stable walk whose recordings and rewrites cover every activation. *)
let run st (md : Hir.module_def) =
  let path = md.Hir.m_name ^ "/body" in
  let env0 = init_env st.ctx in
  let rec fix n head =
    match fst (exec st scope0 ~ret:None path (Some head) md.Hir.m_body) with
    | None -> head
    | Some o ->
      let j = join_env head o in
      if equal_env j head then head
      else fix (n + 1) (if n >= 2 then widen_env head j else j)
  in
  let head = fix 0 env0 in
  let _, body' = exec st scope0 ~ret:None path (Some head) md.Hir.m_body in
  body'

type result = {
  var_ranges : (string * Interval.t) list;
  raw_ranges : (string * Interval.t) list;
  arr_ranges : (string * Interval.t) list;
  port_ranges : (string * Interval.t) list;
}

let analyse (md : Hir.module_def) : result =
  let ctx = build_ctx md in
  let r = fresh_recorder () in
  let st = { ctx; rec_ = Some r; depth = 0 } in
  let _ = run st md in
  let zero = I.of_const 0 in
  let with0 m name = match M.find_opt name m with None -> zero | Some v -> I.join zero v in
  let outs =
    List.filter_map
      (fun (n, dir, _) -> match dir with Hir.Pout -> Some n | Hir.Pin -> None)
      md.Hir.m_ports
  in
  {
    var_ranges =
      List.map (fun (n, _) -> (n, with0 r.wrapped_var n)) md.Hir.m_vars
      @ List.map (fun n -> (n, with0 r.wrapped_var n)) outs;
    raw_ranges = M.bindings r.raw_var;
    arr_ranges =
      List.map (fun (n, _, _) -> (n, with0 r.wrapped_arr n)) md.Hir.m_arrays;
    port_ranges =
      List.filter_map
        (fun n -> Option.map (fun v -> (n, v)) (M.find_opt n r.wrapped_var))
        outs;
  }

(* ------------------------------------------------------------------ *)
(* Diagnostics                                                         *)
(* ------------------------------------------------------------------ *)

let pp_ty (ty : Hir.ty) =
  Printf.sprintf "%s%d" (if ty.Hir.signed then "int" else "uint") ty.Hir.width

let lint (md : Hir.module_def) : D.t list =
  let ctx = build_ctx md in
  let r = fresh_recorder () in
  let st = { ctx; rec_ = Some r; depth = 0 } in
  let _ = run st md in
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

let optimise (md : Hir.module_def) : Hir.module_def =
  let inlined =
    if md.Hir.m_subprograms <> [] then Inline.run md else md
  in
  let ctx = build_ctx inlined in
  let r = fresh_recorder () in
  let st = { ctx; rec_ = Some r; depth = 0 } in
  let body' = run st inlined in
  let m_vars' =
    List.map
      (fun (n, ty) -> (n, narrow_ty ty (M.find_opt n r.raw_var)))
      inlined.Hir.m_vars
  in
  let m_arrays' =
    List.map
      (fun (n, ty, len) -> (n, narrow_ty ty (M.find_opt n r.raw_arr), len))
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

let fsm_ctx (fsm : Fsm.t) =
  let add m (n, ty) = M.add n ty m in
  {
    var_ty = List.fold_left add (List.fold_left add M.empty fsm.Fsm.vars) fsm.Fsm.outputs;
    input_ty = List.fold_left add M.empty fsm.Fsm.inputs;
    arr_ty =
      List.fold_left
        (fun m (n, ty, len) -> M.add n (ty, len) m)
        M.empty fsm.Fsm.arrays;
    subs = M.empty;
    summary = (fun _ -> empty_summary);
  }

let rec stmt_of_action = function
  | Fsm.Do (lv, e) -> Hir.Assign (lv, e)
  | Fsm.Do_if (c, a, b) ->
    Hir.If (c, List.map stmt_of_action a, List.map stmt_of_action b)

(* Worklist abstract execution of the state machine. Entry is seeded
   with the all-zero reset state; the implicit repeat-forever edge is
   modelled by propagating into the entry like any other state. *)
let fsm_envs (fsm : Fsm.t) =
  let ctx = fsm_ctx fsm in
  let st = { ctx; rec_ = None; depth = 0 } in
  let n = Array.length fsm.Fsm.states in
  let envs : env option array = Array.make n None in
  let joins = Array.make n 0 in
  let queue = Queue.create () in
  let propagate j e =
    let merged =
      match envs.(j) with
      | None -> Some e
      | Some old ->
        let joined = join_env old e in
        let joined = if joins.(j) > 3 then widen_env old joined else joined in
        if equal_env joined old then None else Some joined
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
      let path = Printf.sprintf "%s/state-%d" fsm.Fsm.fsm_name i in
      let out, _ =
        exec st scope0 ~ret:None path (Some e)
          (List.map stmt_of_action fsm.Fsm.states.(i).Fsm.actions)
      in
      match out with
      | None -> () (* actions provably crash: no successors *)
      | Some e -> (
        match fsm.Fsm.states.(i).Fsm.next with
        | Fsm.Goto j -> propagate j e
        | Fsm.Branch (c, a, b) ->
          let civ, _ = peval st scope0 e c in
          (if not (never_nonzero civ) then
             match refine st scope0 e c true with
             | Some e' -> propagate a e'
             | None -> ());
          if may_be_zero civ then (
            match refine st scope0 e c false with
            | Some e' -> propagate b e'
            | None -> ())))
  done;
  (envs, st)

let lint_fsm (fsm : Fsm.t) : D.t list =
  let envs, _ = fsm_envs fsm in
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
  let envs, st = fsm_envs fsm in
  let n = Array.length fsm.Fsm.states in
  if n = 0 then fsm
  else begin
    (* Decide each live state's next: a Branch collapses to Goto only
       when the analysis proves it one-sided AND the condition is
       side-effect- and crash-free (dropping its evaluation must not
       change input consumption or error behaviour). *)
    let next' =
      Array.mapi
        (fun i (state : Fsm.state) ->
          match (state.Fsm.next, envs.(i)) with
          | Fsm.Branch (c, a, b), Some e -> (
            (* the condition is evaluated after this state's actions,
               so judge it on the post-actions environment *)
            let post, _ =
              exec st scope0 ~ret:None
                (Printf.sprintf "%s/state-%d" fsm.Fsm.fsm_name i)
                (Some e)
                (List.map stmt_of_action state.Fsm.actions)
            in
            match post with
            | None -> state.Fsm.next
            | Some e ->
              let civ, csafe = peval st scope0 e c in
              if csafe && never_nonzero civ then Fsm.Goto b
              else if csafe && not (may_be_zero civ) then Fsm.Goto a
              else state.Fsm.next)
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
