module D = Fossy.Diagnostic

let lint_module m =
  let structural =
    match Fossy.Hir.validate m with
    | Ok () -> []
    | Error es ->
      List.map
        (fun e -> D.error ~code:"E000" ~path:m.Fossy.Hir.m_name "%s" e)
        es
  in
  List.sort_uniq D.compare (structural @ Fossy.Synthesis.diagnostics m)

let lint_design = Vhdl_lint.run
let lint_vta = Concurrency.guard_deadlocks
let lint_kernel = Concurrency.race_diagnostics
let install () = ()
