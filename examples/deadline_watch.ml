(* Real-time checking with Required Execution Times.

   OSSS pairs the EET annotation with its dual, the Required
   Execution Time: an OSSS_RET block asserts that a stretch of
   behaviour meets its deadline during simulation. This example feeds
   a small tile-processing loop through a mailbox, checks each tile
   against its budget, and shows a deadline violation being caught.
   For a waveform of a decoder model's activity, see
   [osss_sim trace --vcd].

     dune exec examples/deadline_watch.exe
*)

let us = Sim.Sim_time.us

let () =
  let kernel = Sim.Kernel.create () in

  (* Tile queue: processing times vary per tile; tile 5 blows its
     deadline on purpose. *)
  let work = Sim.Mailbox.create kernel ~name:"tiles" () in
  Sim.Kernel.spawn kernel (fun () ->
      for tile = 1 to 6 do
        Sim.Mailbox.put work (tile, us (if tile = 5 then 130 else 40 + (tile * 7)))
      done);

  Sim.Kernel.spawn kernel (fun () ->
      for _ = 1 to 6 do
        let tile, cost = Sim.Mailbox.get work in
        match
          Osss.Eet.ret_check ~label:"tile deadline" (us 100) (fun () ->
              Osss.Eet.consume cost)
        with
        | (), true ->
          Printf.printf "[%8s] tile %d done within its 100 us budget\n"
            (Sim.Sim_time.to_string (Sim.Kernel.now kernel))
            tile
        | (), false ->
          Printf.printf "[%8s] tile %d MISSED its deadline (%s needed)\n"
            (Sim.Sim_time.to_string (Sim.Kernel.now kernel))
            tile
            (Sim.Sim_time.to_string cost)
      done);

  Sim.Kernel.run kernel;

  (* The raising variant turns a missed deadline into a simulation
     failure — useful under a test runner. *)
  let kernel2 = Sim.Kernel.create () in
  Sim.Kernel.spawn kernel2 (fun () ->
      try Osss.Eet.ret ~label:"hard deadline" (us 10) (fun () -> Osss.Eet.consume (us 25))
      with Osss.Eet.Deadline_violation { label; required; actual } ->
        Printf.printf "caught violation of %S: required %s, needed %s\n" label
          (Sim.Sim_time.to_string required)
          (Sim.Sim_time.to_string actual));
  Sim.Kernel.run kernel2
