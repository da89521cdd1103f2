type t = {
  kernel : Sim.Kernel.t;
  mutable spans : (Sim.Sim_time.t * Sim.Sim_time.t) list; (* reversed *)
}

let create kernel = { kernel; spans = [] }

let measure t f =
  let started = Sim.Kernel.now t.kernel in
  let result = f () in
  t.spans <- (started, Sim.Kernel.now t.kernel) :: t.spans;
  result

let count t = List.length t.spans

let busy t =
  let sorted =
    List.sort (fun (a, _) (b, _) -> Sim.Sim_time.compare a b) t.spans
  in
  let total, last =
    List.fold_left
      (fun (total, current) (start, stop) ->
        match current with
        | None -> (total, Some (start, stop))
        | Some (cur_start, cur_stop) ->
          if Sim.Sim_time.( <= ) start cur_stop then
            (total, Some (cur_start, Sim.Sim_time.max cur_stop stop))
          else
            ( Sim.Sim_time.add total (Sim.Sim_time.sub cur_stop cur_start),
              Some (start, stop) ))
      (Sim.Sim_time.zero, None) sorted
  in
  match last with
  | None -> total
  | Some (start, stop) -> Sim.Sim_time.add total (Sim.Sim_time.sub stop start)

let busy_ms t = Sim.Sim_time.to_float_ms (busy t)

let sum t =
  List.fold_left
    (fun acc (start, stop) -> Sim.Sim_time.add acc (Sim.Sim_time.sub stop start))
    Sim.Sim_time.zero t.spans
