type t = {
  kernel : Kernel.t;
  name : string;
  waiters : (unit -> unit) Queue.t;
}

let create kernel ?(name = "event") () =
  { kernel; name; waiters = Queue.create () }

let on_next t f = Queue.push f t.waiters

(* Notification captures the waiter set at notify time; waiters
   registered afterwards belong to the next notification. *)
let drain t =
  let woken = Queue.create () in
  Queue.transfer t.waiters woken;
  woken

(* Each waiter may resume a process inline; one still to run is a
   sibling that must not be overtaken, so the delivery never settles
   early. *)
let never () = false
let run_waiter f = f ()
let deliver t woken = Kernel.deliver t.kernel woken ~settle:never run_waiter

let notify t =
  let woken = drain t in
  if not (Queue.is_empty woken) then
    Kernel.schedule_delta t.kernel (fun () -> deliver t woken)

let notify_immediate t =
  let woken = drain t in
  if not (Queue.is_empty woken) then
    Kernel.schedule_now t.kernel (fun () -> deliver t woken)

let notify_after t d =
  if Sim_time.is_zero d then notify t
  else Kernel.schedule_after t.kernel d (fun () -> deliver t (drain t))

let wait t = Kernel.suspend (fun resume -> on_next t resume)

let wait_any events =
  match events with
  | [] -> invalid_arg "Event.wait_any: empty list"
  | [ e ] -> wait e
  | _ ->
    Kernel.suspend (fun resume ->
        let fired = ref false in
        let once () =
          if not !fired then begin
            fired := true;
            resume ()
          end
        in
        List.iter (fun e -> on_next e once) events)
