(* Soundness and profitability tests for the interval + known-bits
   abstract interpreter (Fossy.Interval / Fossy.Absint) and the
   synthesis optimisations it licenses.

   Two layers of qcheck properties share one generator each:
   - operator level: random abstract values around random concrete
     points, asserting every transfer function over-approximates
     Interp's exact integer semantics;
   - program level: random well-typed HIR modules with in-range
     stimuli, asserting (a) concrete execution stays inside the
     computed port ranges and (b) Absint.optimise / Absint.prune_fsm
     preserve the observable trace exactly. *)

open Fossy.Hir
module I = Fossy.Interval

let qc = QCheck_alcotest.to_alcotest

(* -- operator-level soundness ---------------------------------------- *)

(* Interp's exact semantics, replicated so the oracle is independent
   of the abstract domain under test. *)
let concrete_binop op a b =
  match op with
  | Add -> a + b
  | Sub -> a - b
  | Mul -> a * b
  | Shl -> a lsl (b land 63)
  | Shr -> a asr (b land 63)
  | Band -> a land b
  | Bor -> a lor b
  | Bxor -> a lxor b
  | Eq -> if a = b then 1 else 0
  | Ne -> if a <> b then 1 else 0
  | Lt -> if a < b then 1 else 0
  | Le -> if a <= b then 1 else 0
  | Gt -> if a > b then 1 else 0
  | Ge -> if a >= b then 1 else 0

let concrete_unop op a = match op with Neg -> -a | Bnot -> lnot a

let all_binops =
  [ Add; Sub; Mul; Shl; Shr; Band; Bor; Bxor; Eq; Ne; Lt; Le; Gt; Ge ]

(* A concrete point plus an abstract value guaranteed (by join
   soundness) to contain it. Mixing magnitudes exercises both the
   precise corner arithmetic and the overflow-widening paths. *)
let point_in_interval_gen =
  let open QCheck.Gen in
  let any_int =
    oneof
      [
        int_range (-1000) 1000;
        int_range (-1) 70;
        map (fun i -> i * 2_000_000_000) (int_range (-2_000_000) 2_000_000);
        oneofl [ min_int; max_int; 0; -1; 1; max_int - 1; min_int + 1 ];
      ]
  in
  let* p = any_int in
  let* spread = any_int in
  return (p, I.join (I.of_const p) (I.of_const spread))

let binop_soundness =
  QCheck.Test.make ~name:"Interval.binop contains the concrete result"
    ~count:1000
    QCheck.(
      make
        Gen.(
          triple (oneofl all_binops) point_in_interval_gen point_in_interval_gen))
    (fun (op, (a, ia), (b, ib)) ->
      (* lsl past 62 bits is unspecified in OCaml; Interp never
         produces it from validated programs, and the domain returns
         an abstraction of everything there anyway, so keep the
         oracle inside defined behaviour. *)
      QCheck.assume
        (match op with Shl -> b land 63 <= 62 && abs a < 0x4000_0000 | _ -> true);
      I.contains (I.binop op ia ib) (concrete_binop op a b))

let unop_soundness =
  QCheck.Test.make ~name:"Interval.unop contains the concrete result"
    ~count:400
    QCheck.(make Gen.(pair (oneofl [ Neg; Bnot ]) point_in_interval_gen))
    (fun (op, (a, ia)) -> I.contains (I.unop op ia) (concrete_unop op a))

let wrap_soundness =
  QCheck.Test.make ~name:"Interval.wrap_ty contains Interp.wrap" ~count:1000
    QCheck.(
      make Gen.(triple (1 -- 64) bool point_in_interval_gen))
    (fun (width, signed, (a, ia)) ->
      let ty = { width; signed } in
      I.contains (I.wrap_ty ty ia) (Fossy.Interp.wrap ty a))

let assume_soundness =
  QCheck.Test.make
    ~name:"Interval.assume_cmp keeps every point satisfying the comparison"
    ~count:600
    QCheck.(
      make
        Gen.(
          triple
            (oneofl [ Eq; Ne; Lt; Le; Gt; Ge ])
            point_in_interval_gen point_in_interval_gen))
    (fun (op, (a, ia), (b, ib)) ->
      if concrete_binop op a b = 0 then true
      else
        match I.assume_cmp op ia ib with
        | None -> false (* satisfiable assumption proved empty: unsound *)
        | Some (ia', ib') -> I.contains ia' a && I.contains ib' b)

let meet_soundness =
  QCheck.Test.make ~name:"Interval.meet keeps common points" ~count:400
    QCheck.(make Gen.(pair point_in_interval_gen point_in_interval_gen))
    (fun ((a, ia), (_, ib)) ->
      if not (I.contains ib a) then true
      else match I.meet ia ib with None -> false | Some m -> I.contains m a)

let widen_soundness =
  QCheck.Test.make ~name:"Interval.widen bounds both arguments" ~count:400
    QCheck.(make Gen.(pair point_in_interval_gen point_in_interval_gen))
    (fun ((a, ia), (b, ib)) ->
      let w = I.widen ia ib in
      I.contains w a && I.contains w b)

(* Absint's environment join and widening keep a slot's old value
   untouched when both sides hold the same interval; that shortcut is
   only sound while join and widen are idempotent on every value the
   analysis can build: constructor results, transfer-function results,
   wrapped stores and refinements. *)
let reachable_interval_gen =
  let open QCheck.Gen in
  let point = map snd point_in_interval_gen in
  oneof
    [
      point;
      map3 I.binop (oneofl all_binops) point point;
      map3
        (fun width signed a -> I.wrap_ty { width; signed } a)
        (1 -- 64) bool point;
      map2
        (fun a b -> match I.meet a b with Some m -> m | None -> a)
        point point;
    ]

let reachable_interval = QCheck.make ~print:I.to_string reachable_interval_gen

let join_idempotent =
  QCheck.Test.make ~name:"Interval.join a a = a" ~count:2000 reachable_interval
    (fun a -> I.equal (I.join a a) a)

let widen_idempotent =
  QCheck.Test.make ~name:"Interval.widen a a = a" ~count:2000 reachable_interval
    (fun a -> I.equal (I.widen a a) a)

(* -- shared random-module generator ---------------------------------- *)

(* Statement pool over two variables (one optionally unsigned), a
   power-of-two array with masked indices, one function and mixed
   widths — every module validates by construction and every array
   access is in range, so Interp never faults and the properties can
   demand exact trace equality. *)
let typed_module_gen =
  let open QCheck.Gen in
  let* win = oneofl [ 4; 8; 12 ] in
  let* wx = oneofl [ 6; 10; 16 ] in
  let* y_unsigned = bool in
  let ty_y = if y_unsigned then uint_ty 9 else int_ty 9 in
  let stmt_of_code code =
    match code mod 12 with
    | 0 -> [ assign "x" (v "x" +: v "din") ]
    | 1 -> [ assign "y" (Call ("triple", [ v "x" ])) ]
    | 2 -> [ assign_arr "mem" (Bin (Band, v "x", c 7)) (v "y") ]
    | 3 -> [ assign "y" (Arr ("mem", Bin (Band, v "din", c 7))) ]
    | 4 -> [ Wait ]
    | 5 ->
      [
        If
          ( Bin (Gt, v "x", c 0),
            [ assign "out" (v "x" -: v "y"); Wait ],
            [ assign "out" (v "y") ] );
      ]
    | 6 -> [ For ("k", 0, 2, [ assign "x" (v "x" +: c 1) ]) ]
    | 7 -> [ assign "out" (Bin (Bxor, v "x", v "y")) ]
    | 8 -> [ If (v "y" <: c 5, [ assign "y" (v "y" *: c 2) ], []) ]
    | 9 -> [ assign "x" (v "x" >>: 2) ]
    | 10 -> [ assign "out" (Bin (Bor, v "x", c 1)) ]
    | _ -> [ assign "x" (Bin (Sub, c 3, v "x")) ]
  in
  let* codes = list_size (1 -- 12) (0 -- 11) in
  let body = List.concat_map stmt_of_code codes @ [ assign "out" (v "x"); Wait ] in
  let m =
    {
      m_name = "rand";
      m_ports = [ ("din", Pin, int_ty win); ("out", Pout, int_ty 20) ];
      m_vars = [ ("x", int_ty wx); ("y", ty_y) ];
      m_arrays = [ ("mem", int_ty 9, 8) ];
      m_subprograms =
        [
          {
            s_name = "triple";
            s_params = [ ("a", int_ty wx) ];
            s_ret = Some (int_ty 9);
            s_locals = [ ("t", int_ty (wx + 2)) ];
            s_body = [ assign "t" (v "a" *: c 3); Return (Some (v "t" >>: 1)) ];
          };
        ];
      m_body = body;
    }
  in
  (* In-range stimulus: the analysis models input reads as values of
     the declared port type, so the harness must honour it. *)
  let lim = 1 lsl (win - 1) in
  let* stim = list_size (return 10) (int_range (-lim) (lim - 1)) in
  return (m, [ ("din", stim) ])

let assume_valid m =
  match validate m with Ok () -> () | Error _ -> QCheck.assume_fail ()

(* (a) concrete execution stays inside the computed abstractions *)
let analysis_soundness =
  QCheck.Test.make
    ~name:"Absint port ranges contain every concretely emitted value"
    ~count:600
    (QCheck.make typed_module_gen)
    (fun (m, stim) ->
      assume_valid m;
      let r = Fossy.Absint.analyse m in
      let trace = Fossy.Interp.run_hir m stim in
      List.for_all
        (fun (port, values) ->
          values = []
          ||
          match List.assoc_opt port r.Fossy.Absint.port_ranges with
          | None -> false (* emitted on a port the analysis missed *)
          | Some iv -> List.for_all (I.contains iv) values)
        trace)

(* (b) the optimiser preserves the observable trace, under both the
   behavioural interpreter and the extracted FSM *)
let optimise_equivalence =
  QCheck.Test.make
    ~name:"Absint.optimise and prune_fsm preserve the trace exactly"
    ~count:300
    (QCheck.make typed_module_gen)
    (fun (m, stim) ->
      assume_valid m;
      let inlined = Fossy.Inline.run m in
      let opt = Fossy.Absint.optimise inlined in
      let reference = Fossy.Interp.run_hir inlined stim in
      let hir_ok = Fossy.Interp.run_hir opt stim = reference in
      let fsm_ok =
        Fossy.Interp.run_fsm
          (Fossy.Absint.prune_fsm (Fossy.Fsm.of_module opt))
          stim
        = reference
      in
      hir_ok && fsm_ok)

(* -- fixed regressions: widening ------------------------------------- *)

let loop_module body vars =
  {
    m_name = "fix";
    m_ports = [ ("din", Pin, int_ty 8); ("out", Pout, int_ty 20) ];
    m_vars = vars;
    m_arrays = [];
    m_subprograms = [];
    m_body = body @ [ Wait ];
  }

let test_for_widening_sound () =
  (* Accumulation over a For loop: widening must terminate AND the
     final range must still contain the exact result (10). *)
  let m =
    loop_module
      [
        assign "x" (c 0);
        For ("i", 0, 9, [ assign "x" (v "x" +: c 1) ]);
        assign "out" (v "x");
      ]
      [ ("x", int_ty 16) ]
  in
  let r = Fossy.Absint.analyse m in
  let x = List.assoc "x" r.Fossy.Absint.var_ranges in
  Alcotest.(check bool) "10 in range" true (I.contains x 10);
  let out = List.assoc "out" r.Fossy.Absint.port_ranges in
  Alcotest.(check bool) "10 emitted" true (I.contains out 10)

let test_for_bound_narrowing () =
  (* y := 3*i for i in 0..9 gives raw range [0, 27]: the optimiser
     must narrow the 20-bit declaration to 6 signed bits. *)
  let m =
    loop_module
      [ For ("i", 0, 9, [ assign "y" (v "i" *: c 3); assign "out" (v "y") ]) ]
      [ ("y", int_ty 20) ]
  in
  let opt = Fossy.Absint.optimise m in
  Alcotest.(check int) "narrowed width" 6
    (match List.assoc_opt "y" opt.m_vars with
    | Some ty -> ty.width
    | None -> -1);
  let stim = [ ("din", [ 0 ]) ] in
  Alcotest.(check bool) "trace preserved" true
    (Fossy.Interp.run_hir opt stim = Fossy.Interp.run_hir m stim)

(* -- fixed regressions: signed/unsigned corner widths ----------------- *)

let test_corner_widths () =
  Alcotest.(check bool) "uint1 range" true
    (I.equal (I.of_ty (uint_ty 1)) (I.of_bounds 0 1));
  (* widths >= 62 are stored unwrapped: of_ty is top, wrap_ty is id *)
  Alcotest.(check bool) "width 62 is top" true (I.equal (I.of_ty (int_ty 62)) I.top);
  Alcotest.(check bool) "width 64 is top" true (I.equal (I.of_ty (int_ty 64)) I.top);
  let v61 = I.of_const ((1 lsl 60) - 5) in
  Alcotest.(check bool) "wrap_ty 62 identity" true
    (I.equal (I.wrap_ty (int_ty 62) v61) v61);
  (* storing -1 in a uint8 must wrap to exactly 255 *)
  Alcotest.(check (option int)) "uint8 := -1" (Some 255)
    (I.is_singleton (I.wrap_ty (uint_ty 8) (I.of_const (-1))));
  Alcotest.(check (option int)) "int8 := 128" (Some (-128))
    (I.is_singleton (I.wrap_ty (int_ty 8) (I.of_const 128)));
  (* signed width 61 wraps a just-too-big constant into range *)
  let m = 1 lsl 60 in
  Alcotest.(check (option int)) "int61 := 2^60" (Some (-m))
    (I.is_singleton (I.wrap_ty (int_ty 61) (I.of_const m)));
  Alcotest.(check int) "min_width of [0,27] signed" 6
    (I.min_width ~signed:true (I.of_bounds 0 27));
  Alcotest.(check int) "min_width of [-1,0] signed" 1
    (I.min_width ~signed:true (I.of_bounds (-1) 0));
  Alcotest.(check int) "min_width of [0,1] unsigned" 1
    (I.min_width ~signed:false (I.of_bounds 0 1))

(* -- fixed regressions: diagnostics ---------------------------------- *)

let has_code code ds =
  List.exists (fun d -> d.Fossy.Diagnostic.code = code) ds

let test_w018_proved_truncation () =
  (* din in [-8,7], so x := din + 100 lies in [92,107]: disjoint from
     int4's storable range — truncation proved on every execution. *)
  let m =
    {
      m_name = "w018";
      m_ports = [ ("din", Pin, int_ty 4); ("out", Pout, int_ty 20) ];
      m_vars = [ ("x", int_ty 4) ];
      m_arrays = [];
      m_subprograms = [];
      m_body = [ assign "x" (v "din" +: c 100); assign "out" (v "x"); Wait ];
    }
  in
  Alcotest.(check bool) "W018 fires" true
    (has_code "W018" (Fossy.Absint.lint m));
  (* narrowing must leave the truncating store alone: behaviour holds *)
  let opt = Fossy.Absint.optimise m in
  let stim = [ ("din", [ -8; 0; 7 ]) ] in
  Alcotest.(check bool) "still equivalent" true
    (Fossy.Interp.run_hir opt stim = Fossy.Interp.run_hir m stim)

let test_w019_proved_branch () =
  let m =
    {
      m_name = "w019";
      m_ports = [ ("din", Pin, int_ty 4); ("out", Pout, int_ty 20) ];
      m_vars = [];
      m_arrays = [];
      m_subprograms = [];
      m_body =
        [
          If
            ( v "din" <: c 100 (* always true: din <= 7 *),
              [ assign "out" (v "din") ],
              [ assign "out" (c 0) ] );
          Wait;
        ];
    }
  in
  Alcotest.(check bool) "W019 fires" true
    (has_code "W019" (Fossy.Absint.lint m));
  (* syntactic constant conditions are idioms, not findings *)
  let const_cond =
    { m with m_body = [ If (c 1, [ assign "out" (c 1) ], []); Wait ] }
  in
  Alcotest.(check bool) "Const cond exempt" false
    (has_code "W019" (Fossy.Absint.lint const_cond))

let test_e020_w021_array_bounds () =
  let mk index =
    {
      m_name = "arr";
      m_ports = [ ("din", Pin, int_ty 4); ("out", Pout, int_ty 20) ];
      m_vars = [];
      m_arrays = [ ("mem", int_ty 9, 4) ];
      m_subprograms = [];
      m_body = [ assign "out" (Arr ("mem", index)); Wait ];
    }
  in
  (* (din land 3) lor 4 lies in [4,7]: every execution faults *)
  let always = mk (Bin (Bor, Bin (Band, v "din", c 3), c 4)) in
  Alcotest.(check bool) "E020 fires" true
    (has_code "E020" (Fossy.Absint.lint always));
  (* din land 7 lies in [0,7]: may fault on a 4-element array *)
  let maybe = mk (Bin (Band, v "din", c 7)) in
  let ds = Fossy.Absint.lint maybe in
  Alcotest.(check bool) "W021 fires" true (has_code "W021" ds);
  Alcotest.(check bool) "not E020" false (has_code "E020" ds);
  (* din land 3 is proved in range: silence *)
  let fine = Fossy.Absint.lint (mk (Bin (Band, v "din", c 3))) in
  Alcotest.(check bool) "in-range silent" false
    (has_code "W021" fine || has_code "E020" fine)

let test_w022_and_prune () =
  (* x stays in [-8,7], so the Gt-100 arm (which holds a Wait and
     therefore its own FSM state) is reachable syntactically but not
     under value constraints. *)
  let m =
    {
      m_name = "w022";
      m_ports = [ ("din", Pin, int_ty 4); ("out", Pout, int_ty 20) ];
      m_vars = [ ("x", int_ty 4) ];
      m_arrays = [];
      m_subprograms = [];
      m_body =
        [
          assign "x" (v "din");
          If
            ( Bin (Gt, v "x", c 100),
              [ assign "out" (c 1); Wait; assign "out" (c 2) ],
              [ assign "out" (v "x") ] );
          Wait;
        ];
    }
  in
  let fsm = Fossy.Fsm.of_module (Fossy.Inline.run m) in
  Alcotest.(check bool) "W022 fires" true
    (has_code "W022" (Fossy.Absint.lint_fsm fsm));
  let pruned = Fossy.Absint.prune_fsm fsm in
  Alcotest.(check bool) "states dropped" true
    (Fossy.Fsm.state_count pruned < Fossy.Fsm.state_count fsm);
  let stim = [ ("din", [ 3; -5; 7 ]) ] in
  Alcotest.(check bool) "trace preserved" true
    (Fossy.Interp.run_fsm pruned stim = Fossy.Interp.run_fsm fsm stim)

(* -- diagnostic stability -------------------------------------------- *)

let test_lint_stable_and_deduped () =
  let ds = Analysis.Lint.lint_module Models.Idwt_cores.idwt97_systemc in
  let resorted = List.sort_uniq Fossy.Diagnostic.compare ds in
  Alcotest.(check bool) "sorted and deduplicated (idempotent)" true
    (ds = resorted);
  let rendered = List.map Fossy.Diagnostic.render ds in
  let again =
    List.map Fossy.Diagnostic.render
      (Analysis.Lint.lint_module Models.Idwt_cores.idwt97_systemc)
  in
  Alcotest.(check (list string)) "byte-stable across runs" rendered again

(* -- golden digest of the value-analysis flow ------------------------ *)

(* One MD5 over everything the analysis decides for 300 seeded random
   modules and the two IDWT cores: the analyse ranges, the rendered HIR
   and FSM diagnostics, the optimised HIR and the VHDL of the pruned
   FSM. Widening makes those outputs depend on how many times each
   fixpoint iterates, so a change to the environment representation or
   the worklist that alters any iteration count shows up here. *)
let golden_flow_digest = "73d15876cb85886882fe250cb622fc1d"

let digest_flow modules =
  let buf = Buffer.create (1 lsl 20) in
  let add f =
    (match f () with
    | s -> Buffer.add_string buf s
    | exception e -> Buffer.add_string buf ("raised " ^ Printexc.to_string e));
    Buffer.add_char buf '\n'
  in
  let ranges l =
    String.concat ";"
      (List.map
         (fun (n, (x : I.t)) ->
           Printf.sprintf "%s=%d,%d,%d,%d" n x.I.lo x.I.hi x.I.known x.I.bits)
         l)
  in
  let render ds = String.concat "\n" (List.map Fossy.Diagnostic.render ds) in
  List.iter
    (fun m ->
      Buffer.add_string buf m.m_name;
      Buffer.add_char buf '\n';
      match validate m with
      | Error _ -> Buffer.add_string buf "invalid\n"
      | Ok () ->
        add (fun () ->
            let r = Fossy.Absint.analyse m in
            String.concat "|"
              [
                ranges r.Fossy.Absint.var_ranges;
                ranges r.Fossy.Absint.raw_ranges;
                ranges r.Fossy.Absint.arr_ranges;
                ranges r.Fossy.Absint.port_ranges;
              ]);
        add (fun () -> render (Fossy.Absint.lint m));
        add (fun () ->
            render
              (Fossy.Absint.lint_fsm (Fossy.Fsm.of_module (Fossy.Inline.run m))));
        add (fun () ->
            Fossy.Hir_pp.emit (Fossy.Absint.optimise (Fossy.Inline.run m)));
        add (fun () ->
            Rtl.Vhdl_pp.emit
              (Fossy.Codegen.run
                 (Fossy.Absint.prune_fsm
                    (Fossy.Fsm.of_module
                       (Fossy.Absint.optimise (Fossy.Inline.run m)))))))
    modules;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let flow_digest () =
  let drawn =
    QCheck.Gen.generate ~rand:(Random.State.make [| 2008 |]) ~n:300
      typed_module_gen
  in
  digest_flow
    (List.map fst drawn
    @ [ Models.Idwt_cores.idwt53_systemc; Models.Idwt_cores.idwt97_systemc ])

let test_golden_flow () =
  Alcotest.(check string) "flow digest" golden_flow_digest (flow_digest ())

(* Modules with what [typed_module_gen] never draws: While, For and If
   nested to depth 3, calls in If and While conditions and in array
   indices, a procedure call, and a Wait in an arm the analysis proves
   dead ([x land 7 < 0]). [bump] writes the module variable [x], so a
   call changes the environment in which the rest of its expression
   is evaluated. Some modules fail validation (a While without a
   Wait), and a call in a While condition makes Inline raise; the
   digest records both. *)
let rich_module_gen =
  let open QCheck.Gen in
  let* win = oneofl [ 4; 8 ] in
  let* wx = oneofl [ 6; 10; 16 ] in
  let* y_unsigned = bool in
  let rec expr iters d =
    let atom =
      oneof
        [
          map c (int_range (-3) 9);
          oneofl (List.map v ([ "x"; "y"; "din" ] @ iters));
        ]
    in
    if d = 0 then atom
    else
      let sub = expr iters (d - 1) in
      frequency
        [
          (3, atom);
          ( 3,
            map3
              (fun op a b -> Bin (op, a, b))
              (oneofl [ Add; Sub; Mul; Band; Bxor; Shr; Lt; Gt ])
              sub sub );
          (1, map (fun a -> Un (Neg, a)) sub);
          (2, map (fun i -> Arr ("mem", i)) (index iters (d - 1)));
          (2, map (fun a -> Call ("bump", [ a ])) sub);
          (1, map (fun a -> Call ("triple", [ a ])) sub);
        ]
  (* mostly masked into range; unmasked, W021 and E020 can fire *)
  and index iters d =
    map2
      (fun e masked -> if masked then Bin (Band, e, c 7) else e)
      (expr iters d)
      (frequency [ (4, return true); (1, return false) ])
  in
  (* While conditions draw calls less often: Inline refuses them *)
  let cond ~calls iters d =
    frequency
      [
        ( 6 * calls,
          map3
            (fun op a b -> Bin (op, a, b))
            (oneofl [ Lt; Gt; Le; Ge; Eq; Ne ])
            (expr iters d) (expr iters d) );
        (1, map (fun a -> Call ("bump", [ a ])) (expr iters 0));
        (1, map (fun a -> Bin (Gt, Call ("bump", [ a ]), c 3)) (expr iters 0));
        (calls, map v (oneofl ("y" :: iters)));
      ]
  in
  let rec stmts iters d = map List.concat (list_size (1 -- 3) (stmt iters d))
  and stmt iters d =
    let simple =
      [
        ( 3,
          map2 (fun x e -> [ assign x e ]) (oneofl [ "x"; "y"; "out" ])
            (expr iters 2) );
        ( 2,
          map2 (fun i e -> [ assign_arr "mem" i e ]) (index iters 1)
            (expr iters 1) );
        (1, return [ Wait ]);
        (1, map (fun e -> [ Call_p ("pset", [ e ]) ]) (expr iters 1));
        ( 1,
          map
            (fun e ->
              [
                If
                  ( Bin (Lt, Bin (Band, v "x", c 7), c 0),
                    [ Wait; assign "y" (c 1) ],
                    [ assign "y" e ] );
              ])
            (expr iters 1) );
      ]
    in
    if d >= 3 then frequency simple
    else
      let it = Printf.sprintf "i%d" d in
      frequency
        (simple
        @ [
            ( 2,
              map3
                (fun c t e -> [ If (c, t, e) ])
                (cond ~calls:1 iters 1)
                (stmts iters (d + 1))
                (stmts iters (d + 1)) );
            ( 2,
              map3
                (fun c body wait ->
                  [ While (c, if wait then body @ [ Wait ] else body) ])
                (cond ~calls:4 iters 0)
                (stmts iters (d + 1))
                (frequency [ (5, return true); (1, return false) ]) );
            ( 2,
              map2
                (fun hi body -> [ For (it, 0, hi, body) ])
                (0 -- 3)
                (stmts (it :: iters) (d + 1)) );
          ])
  in
  let* body = stmts [] 0 in
  return
    {
      m_name = "rich";
      m_ports = [ ("din", Pin, int_ty win); ("out", Pout, int_ty 20) ];
      m_vars = [ ("x", int_ty wx); ("y", if y_unsigned then uint_ty 9 else int_ty 9) ];
      m_arrays = [ ("mem", int_ty 9, 8) ];
      m_subprograms =
        [
          {
            s_name = "triple";
            s_params = [ ("a", int_ty wx) ];
            s_ret = Some (int_ty 9);
            s_locals = [ ("t", int_ty (wx + 2)) ];
            s_body = [ assign "t" (v "a" *: c 3); Return (Some (v "t" >>: 1)) ];
          };
          {
            s_name = "bump";
            s_params = [ ("b", int_ty 8) ];
            s_ret = Some (uint_ty 4);
            s_locals = [];
            s_body =
              [ assign "x" (v "x" +: v "b"); Return (Some (Bin (Band, v "x", c 7))) ];
          };
          {
            s_name = "pset";
            s_params = [ ("p", int_ty 8) ];
            s_ret = None;
            s_locals = [];
            s_body =
              [
                assign_arr "mem" (Bin (Band, v "p", c 7)) (v "y");
                If (Bin (Gt, v "p", c 3), [ assign "y" (v "p"); Wait ], []);
              ];
          };
        ];
      m_body = body @ [ assign "out" (v "x"); Wait ];
    }

(* Recorded before the analysis engine lost its per-node rewriting:
   the fixpoints, the lints and the optimiser must decide exactly as
   they did. *)
let golden_rich_flow_digest = "dadbf9ea63c00b83225a68b673f10110"

let test_golden_rich_flow () =
  let modules =
    QCheck.Gen.generate ~rand:(Random.State.make [| 2008 |]) ~n:300
      rich_module_gen
  in
  Alcotest.(check string) "rich flow digest" golden_rich_flow_digest
    (digest_flow modules)

(* -- the decoder cores ----------------------------------------------- *)

let core_stimulus =
  [
    ("start", [ 1 ]);
    ("data_in", List.init 96 (fun i -> ((i * 37) mod 211) - 105));
  ]

let test_cores_optimised_area_and_trace () =
  List.iter
    (fun (name, core) ->
      match Fossy.Synthesis.synthesise core with
      | Error es -> Alcotest.failf "%s: %s" name (String.concat "; " es)
      | Ok r ->
        let a = r.Fossy.Synthesis.area and u = r.Fossy.Synthesis.unopt_area in
        (* the headline acceptance bar: a strict win on FF or LUT *)
        Alcotest.(check bool)
          (name ^ ": optimiser strictly shrinks FF or LUT")
          true
          (a.Rtl.Area.flip_flops < u.Rtl.Area.flip_flops
          || a.Rtl.Area.luts < u.Rtl.Area.luts);
        Alcotest.(check bool)
          (name ^ ": never larger")
          true
          (a.Rtl.Area.flip_flops <= u.Rtl.Area.flip_flops
          && a.Rtl.Area.luts <= u.Rtl.Area.luts);
        (* bit-identical refinement: behavioural = optimised = FSM *)
        let reference =
          Fossy.Interp.run_hir ~max_outputs:64 core core_stimulus
        in
        let opt = Fossy.Synthesis.optimise (Fossy.Inline.run core) in
        Alcotest.(check bool)
          (name ^ ": optimised HIR trace identical")
          true
          (Fossy.Interp.run_hir ~max_outputs:64 opt core_stimulus = reference);
        Alcotest.(check bool)
          (name ^ ": synthesised FSM trace identical")
          true
          (Fossy.Interp.run_fsm ~max_outputs:64 r.Fossy.Synthesis.fsm
             core_stimulus
          = reference))
    [
      ("idwt53", Models.Idwt_cores.idwt53_systemc);
      ("idwt97", Models.Idwt_cores.idwt97_systemc);
    ]

let test_cores_testbench_identical () =
  (* The generated self-checking testbench embeds the reference
     output stream; optimisation must not disturb one character. *)
  List.iter
    (fun (name, core) ->
      let tb m =
        match
          Fossy.Testbench.generate_for_module m ~stimulus:core_stimulus
            ~max_outputs:64 ()
        with
        | Ok t -> t
        | Error es -> Alcotest.failf "%s tb: %s" name (String.concat "; " es)
      in
      let opt = Fossy.Synthesis.optimise (Fossy.Inline.run core) in
      Alcotest.(check bool)
        (name ^ ": testbench text identical")
        true
        (tb core = tb opt))
    [
      ("idwt53", Models.Idwt_cores.idwt53_systemc);
      ("idwt97", Models.Idwt_cores.idwt97_systemc);
    ]

let () =
  Alcotest.run "absint"
    [
      ( "interval",
        [
          qc binop_soundness;
          qc unop_soundness;
          qc wrap_soundness;
          qc assume_soundness;
          qc meet_soundness;
          qc widen_soundness;
          qc join_idempotent;
          qc widen_idempotent;
          Alcotest.test_case "corner widths" `Quick test_corner_widths;
        ] );
      ( "absint",
        [
          qc analysis_soundness;
          Alcotest.test_case "For widening sound" `Quick test_for_widening_sound;
        ] );
      ( "optimise",
        [
          qc optimise_equivalence;
          Alcotest.test_case "For-bound narrowing" `Quick test_for_bound_narrowing;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "W018 proved truncation" `Quick
            test_w018_proved_truncation;
          Alcotest.test_case "W019 proved branch" `Quick test_w019_proved_branch;
          Alcotest.test_case "E020/W021 array bounds" `Quick
            test_e020_w021_array_bounds;
          Alcotest.test_case "W022 + prune_fsm" `Quick test_w022_and_prune;
          Alcotest.test_case "stable output" `Quick test_lint_stable_and_deduped;
          Alcotest.test_case "golden flow digest" `Quick test_golden_flow;
          Alcotest.test_case "golden rich flow digest" `Quick
            test_golden_rich_flow;
        ] );
      ( "cores",
        [
          Alcotest.test_case "area win + trace equality" `Quick
            test_cores_optimised_area_and_trace;
          Alcotest.test_case "testbench identical" `Quick
            test_cores_testbench_identical;
        ] );
    ]
