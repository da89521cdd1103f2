open Vhdl

let pp_type fmt = function
  | Std_logic -> Format.pp_print_string fmt "std_logic"
  | Signed_v w -> Format.fprintf fmt "signed(%d downto 0)" (w - 1)
  | Unsigned_v w -> Format.fprintf fmt "unsigned(%d downto 0)" (w - 1)
  | Integer_range (lo, hi) -> Format.fprintf fmt "integer range %d to %d" lo hi
  | Enum_ref name | Array_ref name -> Format.pp_print_string fmt name

let rec pp_expr fmt = function
  | Int_lit n -> Format.pp_print_int fmt n
  | Bit_lit c -> Format.fprintf fmt "'%c'" c
  | Name n -> Format.pp_print_string fmt n
  | Indexed (n, i) -> Format.fprintf fmt "%s(%a)" n pp_expr i
  | Binop (op, a, b) -> Format.fprintf fmt "%a %s %a" pp_expr a op pp_expr b
  | Unop (op, e) -> Format.fprintf fmt "%s %a" op pp_expr e
  | Call_e (f, args) ->
    Format.fprintf fmt "%s(%a)" f
      (Format.pp_print_list
         ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
         pp_expr)
      args
  | Paren e -> Format.fprintf fmt "(%a)" pp_expr e

let expr_to_string e = Format.asprintf "%a" pp_expr e
let type_to_string t = Format.asprintf "%a" pp_type t

(* Text emission works on an explicit line buffer so that LoC
   accounting is trivial and indentation stays uniform. *)
type ctx = { buf : Buffer.t; mutable indent : int }

let line ctx fmt =
  Format.kasprintf
    (fun s ->
      Buffer.add_string ctx.buf (String.make (2 * ctx.indent) ' ');
      Buffer.add_string ctx.buf s;
      Buffer.add_char ctx.buf '\n')
    fmt

let indented ctx f =
  ctx.indent <- ctx.indent + 1;
  f ();
  ctx.indent <- ctx.indent - 1

let rec emit_stmt ctx = function
  | Sig_assign (n, e) -> line ctx "%s <= %s;" n (expr_to_string e)
  | Var_assign (n, e) -> line ctx "%s := %s;" n (expr_to_string e)
  | Idx_sig_assign (n, i, e) ->
    line ctx "%s(%s) <= %s;" n (expr_to_string i) (expr_to_string e)
  | Idx_var_assign (n, i, e) ->
    line ctx "%s(%s) := %s;" n (expr_to_string i) (expr_to_string e)
  | If_s (branches, else_branch) ->
    List.iteri
      (fun i (cond, body) ->
        line ctx "%s %s then" (if i = 0 then "if" else "elsif") (expr_to_string cond);
        indented ctx (fun () -> List.iter (emit_stmt ctx) body))
      branches;
    if else_branch <> [] then begin
      line ctx "else";
      indented ctx (fun () -> List.iter (emit_stmt ctx) else_branch)
    end;
    line ctx "end if;"
  | Case_s (sel, alts) ->
    line ctx "case %s is" (expr_to_string sel);
    indented ctx (fun () ->
        List.iter
          (fun (label, body) ->
            line ctx "when %s =>" label;
            indented ctx (fun () ->
                if body = [] then line ctx "null;"
                else List.iter (emit_stmt ctx) body))
          alts);
    line ctx "end case;"
  | For_s (var, lo, hi, body) ->
    line ctx "for %s in %d to %d loop" var lo hi;
    indented ctx (fun () -> List.iter (emit_stmt ctx) body);
    line ctx "end loop;"
  | Proc_call (p, args) ->
    line ctx "%s(%s);" p (String.concat ", " (List.map expr_to_string args))
  | Return_s e -> line ctx "return %s;" (expr_to_string e)
  | Null_s -> line ctx "null;"
  | Comment c -> line ctx "-- %s" c

let default_suffix = function
  | None -> ""
  | Some e -> Printf.sprintf " := %s" (expr_to_string e)

let rec emit_decl ctx = function
  | Signal_d (n, t, d) ->
    line ctx "signal %s : %s%s;" n (type_to_string t) (default_suffix d)
  | Variable_d (n, t, d) ->
    line ctx "variable %s : %s%s;" n (type_to_string t) (default_suffix d)
  | Constant_d (n, t, v) ->
    line ctx "constant %s : %s := %s;" n (type_to_string t) (expr_to_string v)
  | Enum_d (n, literals) ->
    line ctx "type %s is (%s);" n (String.concat ", " literals)
  | Array_d (n, len, elem) ->
    line ctx "type %s is array (0 to %d) of %s;" n (len - 1) (type_to_string elem)
  | Function_d f ->
    let params =
      String.concat "; "
        (List.map (fun (n, t) -> Printf.sprintf "%s : %s" n (type_to_string t)) f.f_params)
    in
    line ctx "function %s(%s) return %s is" f.f_name params (type_to_string f.f_ret);
    indented ctx (fun () -> List.iter (emit_decl ctx) f.f_decls);
    line ctx "begin";
    indented ctx (fun () -> List.iter (emit_stmt ctx) f.f_body);
    line ctx "end function;"
  | Procedure_d p ->
    let dir_str = function In -> "in" | Out -> "out" in
    let params =
      String.concat "; "
        (List.map
           (fun (n, d, t) ->
             Printf.sprintf "%s : %s %s" n (dir_str d) (type_to_string t))
           p.p_params)
    in
    line ctx "procedure %s(%s) is" p.p_name params;
    indented ctx (fun () -> List.iter (emit_decl ctx) p.p_decls);
    line ctx "begin";
    indented ctx (fun () -> List.iter (emit_stmt ctx) p.p_body);
    line ctx "end procedure;"

let emit_process ctx p =
  line ctx "%s : process (%s)" p.proc_name (String.concat ", " p.sensitivity);
  indented ctx (fun () -> List.iter (emit_decl ctx) p.proc_decls);
  line ctx "begin";
  indented ctx (fun () -> List.iter (emit_stmt ctx) p.proc_body);
  line ctx "end process;"

let emit design =
  let ctx = { buf = Buffer.create 4096; indent = 0 } in
  line ctx "library ieee;";
  line ctx "use ieee.std_logic_1164.all;";
  line ctx "use ieee.numeric_std.all;";
  line ctx "";
  line ctx "entity %s is" design.entity.ent_name;
  indented ctx (fun () ->
      line ctx "port (";
      indented ctx (fun () ->
          let n = List.length design.entity.ports in
          List.iteri
            (fun i p ->
              line ctx "%s : %s %s%s" p.port_name
                (match p.dir with In -> "in" | Out -> "out")
                (type_to_string p.ptype)
                (if i = n - 1 then "" else ";"))
            design.entity.ports);
      line ctx ");");
  line ctx "end entity;";
  line ctx "";
  line ctx "architecture %s of %s is" design.architecture.arch_name
    design.entity.ent_name;
  indented ctx (fun () -> List.iter (emit_decl ctx) design.architecture.arch_decls);
  line ctx "begin";
  indented ctx (fun () ->
      List.iter
        (fun p ->
          emit_process ctx p;
          line ctx "")
        design.architecture.processes);
  line ctx "end architecture;";
  Buffer.contents ctx.buf

let loc text =
  String.split_on_char '\n' text
  |> List.filter (fun l -> String.trim l <> "")
  |> List.length
