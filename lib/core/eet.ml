let consume t = if not (Sim.Sim_time.is_zero t) then Sim.Kernel.wait_for t

let eet t f =
  let result = f () in
  consume t;
  result

let scaled factor t =
  if factor < 0.0 then invalid_arg "Eet.scaled: negative factor";
  Sim.Sim_time.of_ps
    (int_of_float (Float.round (factor *. float_of_int (Sim.Sim_time.to_ps t))))

exception Deadline_violation of {
  label : string;
  required : Sim.Sim_time.t;
  actual : Sim.Sim_time.t;
}

let ret_check required f =
  let kernel = Sim.Kernel.self () in
  let started = Sim.Kernel.now kernel in
  let result = f () in
  let actual = Sim.Sim_time.sub (Sim.Kernel.now kernel) started in
  (result, Sim.Sim_time.( <= ) actual required)

let ret ?(label = "ret") required f =
  let kernel = Sim.Kernel.self () in
  let started = Sim.Kernel.now kernel in
  let result = f () in
  let actual = Sim.Sim_time.sub (Sim.Kernel.now kernel) started in
  if Sim.Sim_time.( > ) actual required then
    raise (Deadline_violation { label; required; actual });
  result
