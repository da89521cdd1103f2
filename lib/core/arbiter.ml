type policy = Fcfs | Round_robin | Static_priority

type t = { policy : policy; mutable last_grant : int }

let create policy = { policy; last_grant = -1 }

let free = -1

(* Round-robin: the smallest id strictly greater than the last grant,
   wrapping to the overall smallest when none is greater. One pass,
   no allocation: [above] is [free] until an id above the last grant
   is seen. *)
let rec round_robin_choice last above least = function
  | [] -> if above = free then least else above
  | id :: rest ->
    let above = if id > last && (above = free || id < above) then id else above in
    round_robin_choice last above (if id < least then id else least) rest

let rec lowest least = function
  | [] -> least
  | id :: rest -> lowest (if id < least then id else least) rest

let choose t ~pending =
  match pending with
  | [] -> free
  | first :: rest -> (
    match t.policy with
    | Fcfs -> first
    | Static_priority -> lowest first rest
    | Round_robin -> round_robin_choice t.last_grant free first pending)

let note_grant t id = t.last_grant <- id
