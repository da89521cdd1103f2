type probe = { p_name : string; width : int; initial : int }

type t = {
  kernel : Kernel.t;
  top : string;
  mutable probes : probe list; (* reversed *)
  mutable changes : (Sim_time.t * int * int) list; (* reversed: time, probe index, value *)
}

let create kernel ?(top = "top") () = { kernel; top; probes = []; changes = [] }

let probe t ~name ~width project signal =
  if width <= 0 || width > 62 then invalid_arg "Vcd.probe: width";
  if List.exists (fun p -> String.equal p.p_name name) t.probes then
    invalid_arg (Printf.sprintf "Vcd.probe: duplicate name %s" name);
  let index = List.length t.probes in
  t.probes <- { p_name = name; width; initial = project (Signal.value signal) } :: t.probes;
  (* Re-arming change listener: callbacks run in scheduler context. *)
  let rec listen () =
    Event.on_next (Signal.changed signal) (fun () ->
        t.changes <-
          (Kernel.now t.kernel, index, project (Signal.value signal))
          :: t.changes;
        listen ())
  in
  listen ()

let probe_int t ~name ~width signal = probe t ~name ~width (fun v -> v) signal

let probe_bool t ~name signal =
  probe t ~name ~width:1 (fun b -> if b then 1 else 0) signal

let change_count t = List.length t.changes

let render t =
  Telemetry.Vcd_export.document ~version:"osss-jpeg2000 sim kernel" ~scope:t.top
    ~vars:(List.rev_map (fun p -> (p.p_name, p.width, p.initial)) t.probes)
    ~changes:
      (List.rev_map
         (fun (time, index, value) -> (Sim_time.to_ps time, index, value))
         t.changes)

let save t path =
  let oc = open_out path in
  output_string oc (render t);
  close_out oc
