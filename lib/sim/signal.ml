type 'a t = {
  kernel : Kernel.t;
  name : string;
  equal : 'a -> 'a -> bool;
  mutable current : 'a;
  mutable pending : 'a option;
  mutable pending_writer : string; (* meaningful while [pending <> None] *)
  changed : Event.t;
}

let create kernel ?(name = "signal") ?(equal = ( = )) init =
  {
    kernel;
    name;
    equal;
    current = init;
    pending = None;
    pending_writer = "";
    changed = Event.create kernel ~name:(name ^ ".changed") ();
  }

let value t = t.current
let changed t = t.changed
let last_writer t = if t.pending = None && t.pending_writer = "" then None else Some t.pending_writer

let commit t =
  match t.pending with
  | None -> ()
  | Some v ->
    t.pending <- None;
    if not (t.equal t.current v) then begin
      t.current <- v;
      Event.notify t.changed
    end

let write t v =
  let writer =
    match Kernel.current_label t.kernel with
    | Some label -> label
    | None -> "<scheduler>"
  in
  (match t.pending with
  | None ->
    t.pending_writer <- writer;
    Kernel.at_update t.kernel (fun () -> commit t)
  | Some _ ->
    (* Re-writing within the same evaluation phase is fine for the
       process that owns the pending value (last write wins); a write
       from a different process is a conflicting driver. *)
    if not (String.equal t.pending_writer writer) then begin
      Kernel.report_race t.kernel ~signal:t.name ~first:t.pending_writer
        ~second:writer;
      t.pending_writer <- writer
    end);
  t.pending <- Some v

let wait_change t = Event.wait t.changed

let wait_value t pred =
  let rec loop () =
    if not (pred t.current) then begin
      Event.wait t.changed;
      loop ()
    end
  in
  loop ()
