type policy = Fcfs | Round_robin | Static_priority

type t = { policy : policy; mutable last_grant : int }

let create policy = { policy; last_grant = -1 }

let min_list = function
  | [] -> None
  | x :: rest -> Some (List.fold_left Stdlib.min x rest)

(* Round-robin: the smallest id strictly greater than the last grant,
   wrapping to the overall smallest when none is greater. *)
let round_robin_choice t pending =
  let greater = List.filter (fun id -> id > t.last_grant) pending in
  match min_list greater with Some id -> Some id | None -> min_list pending

let choose t ~pending =
  match pending with
  | [] -> None
  | first :: _ -> (
    match t.policy with
    | Fcfs -> Some first
    | Static_priority -> min_list pending
    | Round_robin -> round_robin_choice t pending)

let note_grant t id = t.last_grant <- id
