open Rtl
module D = Fossy.Diagnostic

(* Name-resolution-free RTL lint: ports, architecture signals and
   process variables share one string namespace, which the generated
   and reference designs keep collision-free. *)

type usage = { reads : (string, unit) Hashtbl.t; writes : (string, unit) Hashtbl.t }

let rec expr_reads u = function
  | Vhdl.Int_lit _ | Vhdl.Bit_lit _ -> ()
  | Vhdl.Name n -> Hashtbl.replace u.reads n ()
  | Vhdl.Indexed (n, e) ->
    Hashtbl.replace u.reads n ();
    expr_reads u e
  | Vhdl.Binop (_, a, b) ->
    expr_reads u a;
    expr_reads u b
  | Vhdl.Unop (_, e) | Vhdl.Paren e -> expr_reads u e
  | Vhdl.Call_e (_, args) -> List.iter (expr_reads u) args

let rec stmt_usage u ~on_write = function
  | Vhdl.Sig_assign (n, e) | Vhdl.Var_assign (n, e) ->
    on_write n;
    Hashtbl.replace u.writes n ();
    expr_reads u e
  | Vhdl.Idx_sig_assign (n, i, e) | Vhdl.Idx_var_assign (n, i, e) ->
    on_write n;
    Hashtbl.replace u.writes n ();
    expr_reads u i;
    expr_reads u e
  | Vhdl.If_s (branches, else_) ->
    List.iter
      (fun (c, ss) ->
        expr_reads u c;
        List.iter (stmt_usage u ~on_write) ss)
      branches;
    List.iter (stmt_usage u ~on_write) else_
  | Vhdl.Case_s (e, arms) ->
    expr_reads u e;
    List.iter (fun (_, ss) -> List.iter (stmt_usage u ~on_write) ss) arms
  | Vhdl.For_s (_, _, _, body) -> List.iter (stmt_usage u ~on_write) body
  | Vhdl.Proc_call (_, args) ->
    (* Procedure parameter modes are not visible here; a name passed
       to a procedure may be an [out] argument, so count it as both
       read and driven. *)
    List.iter
      (fun arg ->
        expr_reads u arg;
        match arg with
        | Vhdl.Name n | Vhdl.Indexed (n, _) -> Hashtbl.replace u.writes n ()
        | _ -> ())
      args
  | Vhdl.Return_s e -> expr_reads u e
  | Vhdl.Null_s | Vhdl.Comment _ -> ()

let rec decl_usage u ~on_write = function
  | Vhdl.Signal_d (_, _, init) | Vhdl.Variable_d (_, _, init) ->
    Option.iter (expr_reads u) init
  | Vhdl.Constant_d (_, _, e) -> expr_reads u e
  | Vhdl.Enum_d _ | Vhdl.Array_d _ -> ()
  | Vhdl.Function_d { f_decls; f_body; _ } ->
    List.iter (decl_usage u ~on_write) f_decls;
    List.iter (stmt_usage u ~on_write) f_body
  | Vhdl.Procedure_d { p_decls; p_body; _ } ->
    List.iter (decl_usage u ~on_write) p_decls;
    List.iter (stmt_usage u ~on_write) p_body

let run (design : Vhdl.design) =
  let ent = design.Vhdl.entity in
  let name = ent.Vhdl.ent_name in
  let u = { reads = Hashtbl.create 32; writes = Hashtbl.create 32 } in
  let acc = ref [] in
  let in_ports =
    List.filter_map
      (fun p -> if p.Vhdl.dir = Vhdl.In then Some p.Vhdl.port_name else None)
      ent.Vhdl.ports
  in
  List.iter
    (fun (d : Vhdl.decl) -> decl_usage u ~on_write:(fun _ -> ()) d)
    design.Vhdl.architecture.Vhdl.arch_decls;
  List.iter
    (fun (p : Vhdl.process) ->
      List.iter (fun s -> Hashtbl.replace u.reads s ()) p.Vhdl.sensitivity;
      let on_write n =
        if List.mem n in_ports then
          acc :=
            D.error ~code:"E010"
              ~path:(name ^ "/" ^ p.Vhdl.proc_name)
              "process drives input port %s" n
            :: !acc
      in
      List.iter (decl_usage u ~on_write) p.Vhdl.proc_decls;
      List.iter (stmt_usage u ~on_write) p.Vhdl.proc_body)
    design.Vhdl.architecture.Vhdl.processes;
  List.iter
    (fun p ->
      if p.Vhdl.dir = Vhdl.Out && not (Hashtbl.mem u.writes p.Vhdl.port_name)
      then
        if Hashtbl.mem u.reads p.Vhdl.port_name then
          acc :=
            D.error ~code:"E011"
              ~path:(name ^ "/" ^ p.Vhdl.port_name)
              "output port %s is read but never driven" p.Vhdl.port_name
            :: !acc
        else
          acc :=
            D.warning ~code:"W015"
              ~path:(name ^ "/" ^ p.Vhdl.port_name)
              "output port %s is never driven" p.Vhdl.port_name
            :: !acc)
    ent.Vhdl.ports;
  List.iter
    (fun (d : Vhdl.decl) ->
      match d with
      | Vhdl.Signal_d (s, _, _)
        when (not (Hashtbl.mem u.reads s)) && not (Hashtbl.mem u.writes s) ->
        acc :=
          D.warning ~code:"W017"
            ~path:(name ^ "/" ^ s)
            "signal %s is declared but never used" s
          :: !acc
      | _ -> ())
    design.Vhdl.architecture.Vhdl.arch_decls;
  List.sort_uniq D.compare !acc
