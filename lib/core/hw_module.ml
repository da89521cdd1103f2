type t = {
  kernel : Sim.Kernel.t;
  name : string;
  clock_hz : int option;
}

let create kernel ~name ?clock_hz () =
  (match clock_hz with
  | Some hz when hz <= 0 -> invalid_arg "Hw_module.create: clock_hz"
  | Some _ | None -> ());
  { kernel; name; clock_hz }

let add_process t ~name body =
  if not (Sim.Sim_time.is_zero (Sim.Kernel.now t.kernel)) then
    invalid_arg
      (Printf.sprintf "Hw_module.add_process: %s elaborated after time zero"
         t.name);
  Sim.Kernel.spawn t.kernel ~name:(t.name ^ "." ^ name) body

let round_up_to_cycles ~hz duration =
  let period = Sim.Sim_time.to_ps (Sim.Sim_time.period ~hz) in
  let d = Sim.Sim_time.to_ps duration in
  Sim.Sim_time.of_ps ((d + period - 1) / period * period)

let eet t duration f =
  let result = f () in
  let d =
    match t.clock_hz with
    | None -> duration
    | Some hz -> round_up_to_cycles ~hz duration
  in
  Eet.consume d;
  result
