type t = {
  c_name : string;
  c_period : Sim_time.t;
  c_signal : bool Signal.t;
  c_posedge : Event.t;
  c_negedge : Event.t;
  mutable c_edges : int;
}

let create kernel ?(name = "clk") ?(duty = 0.5) ?(start_high = false) ?until
    ~period () =
  if Sim_time.is_zero period then invalid_arg "Clock.create: zero period";
  if duty <= 0.0 || duty >= 1.0 then invalid_arg "Clock.create: duty";
  let high =
    Sim_time.of_ps
      (Stdlib.max 1 (int_of_float (duty *. float_of_int (Sim_time.to_ps period))))
  in
  let low = Sim_time.sub period high in
  if Sim_time.is_zero low then invalid_arg "Clock.create: duty too high";
  let t =
    {
      c_name = name;
      c_period = period;
      c_signal = Signal.create kernel ~name start_high;
      c_posedge = Event.create kernel ~name:(name ^ ".posedge") ();
      c_negedge = Event.create kernel ~name:(name ^ ".negedge") ();
      c_edges = 0;
    }
  in
  let expired () =
    match until with
    | None -> false
    | Some horizon -> Sim_time.( >= ) (Kernel.now kernel) horizon
  in
  Kernel.spawn kernel ~name (fun () ->
      let rec run level =
        if not (expired ()) then begin
          if level then begin
            t.c_edges <- t.c_edges + 1;
            Signal.write t.c_signal true;
            Event.notify t.c_posedge;
            Kernel.wait_for high
          end
          else begin
            Signal.write t.c_signal false;
            if t.c_edges > 0 || start_high then Event.notify t.c_negedge;
            Kernel.wait_for low
          end;
          run (not level)
        end
      in
      run (not start_high));
  t

let signal t = t.c_signal
let wait_posedge t = Event.wait t.c_posedge

let wait_cycles t n =
  for _ = 1 to n do
    wait_posedge t
  done

let edges t = t.c_edges
