type channel_hook = link:string -> int32 array -> int32 array
type frame_hook = link:string -> words:int -> bool
type stall_hook = proc:string -> int

(* One DLS slot per carrier: hooks are domain-local so parallel fault
   campaigns can install one engine per worker domain without racing,
   and a domain with no engine keeps the zero-cost unfaulted path. *)
let channel_hook : channel_hook option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let frame_hook : frame_hook option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let stall_hook : stall_hook option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let set_channel f = Domain.DLS.set channel_hook (Some f)
let set_frame f = Domain.DLS.set frame_hook (Some f)
let set_stall f = Domain.DLS.set stall_hook (Some f)

let channel () = Domain.DLS.get channel_hook
let frame () = Domain.DLS.get frame_hook
let stall () = Domain.DLS.get stall_hook

let active () = channel () <> None || frame () <> None || stall () <> None

let clear () =
  Domain.DLS.set channel_hook None;
  Domain.DLS.set frame_hook None;
  Domain.DLS.set stall_hook None
