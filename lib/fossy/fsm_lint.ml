module D = Diagnostic
module Names = Dataflow.Names

(* Constant-aware reachability: a Branch on a constant condition only
   flows into the arm it selects, unlike [Fsm.reachable_states] which
   follows both. *)
let reachable fsm =
  let n = Array.length fsm.Fsm.states in
  let seen = Array.make n false in
  let rec go i =
    if i >= 0 && i < n && not seen.(i) then begin
      seen.(i) <- true;
      match fsm.Fsm.states.(i).Fsm.next with
      | Fsm.Goto j -> go j
      | Fsm.Branch (Hir.Const 0, _, e) -> go e
      | Fsm.Branch (Hir.Const _, t, _) -> go t
      | Fsm.Branch (_, t, e) ->
        go t;
        go e
    end
  in
  go fsm.Fsm.entry;
  seen

let rec expr_reads acc = function
  | Hir.Const _ -> acc
  | Hir.Var n -> Names.add n acc
  | Hir.Arr (a, i) -> expr_reads (Names.add a acc) i
  | Hir.Bin (_, a, b) -> expr_reads (expr_reads acc a) b
  | Hir.Un (_, e) -> expr_reads acc e
  | Hir.Call (_, args) -> List.fold_left expr_reads acc args

let rec action_reads acc = function
  | Fsm.Do (lv, e) ->
    let acc = match lv with
      | Hir.Lv_var _ -> acc
      | Hir.Lv_arr (_, i) -> expr_reads acc i
    in
    expr_reads acc e
  | Fsm.Do_if (c, a, b) ->
    let acc = expr_reads acc c in
    let acc = List.fold_left action_reads acc a in
    List.fold_left action_reads acc b

let reads fsm =
  Array.fold_left
    (fun acc st ->
      let acc = List.fold_left action_reads acc st.Fsm.actions in
      match st.Fsm.next with
      | Fsm.Goto _ -> acc
      | Fsm.Branch (c, _, _) -> expr_reads acc c)
    Names.empty fsm.Fsm.states

(* W012: states no run of the machine can enter. *)
let unreachable_states fsm =
  let seen = reachable fsm in
  let acc = ref [] in
  Array.iteri
    (fun i reached ->
      if not reached then
        acc :=
          D.warning ~code:"W012"
            ~path:(Printf.sprintf "%s/state-%d" fsm.Fsm.fsm_name i)
            "FSM state %d is unreachable from the entry state" i
          :: !acc)
    seen;
  List.rev !acc

(* W013: registers the next-state/action logic never reads — the
   synthesis result carries a flip-flop whose output goes nowhere. *)
let unread_registers fsm =
  let used = reads fsm in
  List.filter_map
    (fun (n, _) ->
      if Names.mem n used then None
      else
        Some
          (D.warning ~code:"W013"
             ~path:(fsm.Fsm.fsm_name ^ "/" ^ n)
             "register %s is never read by any state" n))
    fsm.Fsm.vars

let run fsm = unreachable_states fsm @ unread_registers fsm
