type t = {
  kernel : Kernel.t;
  name : string;
  waiters : (unit -> unit) Queue.t;
}

let create kernel ?(name = "event") () =
  { kernel; name; waiters = Queue.create () }

(* Each waiter may resume a process inline; one still to run is a
   sibling that must not be overtaken, so the delivery never settles
   early. *)
let never () = false
let run_waiter f = f ()
let deliver t woken = Kernel.deliver t.kernel woken ~settle:never run_waiter

(* Notification captures the waiter set at notify time; waiters
   registered afterwards belong to the next notification. *)
let notify t =
  if not (Queue.is_empty t.waiters) then begin
    let woken = Queue.create () in
    Queue.transfer t.waiters woken;
    Kernel.schedule_delta t.kernel (fun () -> deliver t woken)
  end

let wait t = Kernel.suspend (fun resume -> Queue.push resume t.waiters)
