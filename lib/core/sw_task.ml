type t = {
  kernel : Sim.Kernel.t;
  name : string;
  mutable processor : (Processor.t * Processor.binding) option;
  mutable finished : bool;
}

let create kernel ~name body =
  let t = { kernel; name; processor = None; finished = false } in
  Sim.Kernel.spawn kernel ~name (fun () ->
      body t;
      t.finished <- true);
  t

let map_to_processor t proc =
  match t.processor with
  | Some _ ->
    invalid_arg
      (Printf.sprintf "Sw_task.map_to_processor: %s already mapped" t.name)
  | None ->
    let binding = Processor.add_sw_task proc ~task_name:t.name in
    t.processor <- Some (proc, binding)

let processor t = Option.map fst t.processor

let consume t duration =
  match t.processor with
  | None -> Eet.consume duration
  | Some (proc, binding) -> Processor.execute proc binding duration

let eet t duration f =
  let result = f () in
  consume t duration;
  result

let finished t = t.finished
