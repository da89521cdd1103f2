type 'a t = {
  name : string;
  capacity : int;
  items : 'a Queue.t;
  inserted : Event.t;
  removed : Event.t;
}

let create kernel ?(name = "mailbox") ?(capacity = 16) () =
  if capacity <= 0 then invalid_arg "Mailbox.create: capacity";
  {
    name;
    capacity;
    items = Queue.create ();
    inserted = Event.create kernel ~name:(name ^ ".inserted") ();
    removed = Event.create kernel ~name:(name ^ ".removed") ();
  }

let rec put t v =
  if Queue.length t.items >= t.capacity then begin
    Event.wait t.removed;
    put t v
  end
  else begin
    Queue.push v t.items;
    Event.notify t.inserted
  end

let rec get t =
  match Queue.take_opt t.items with
  | Some v ->
    Event.notify t.removed;
    v
  | None ->
    Event.wait t.inserted;
    get t
