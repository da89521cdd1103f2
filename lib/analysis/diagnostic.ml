type severity = Error | Warning | Info

type t = {
  code : string;
  severity : severity;
  path : string;
  message : string;
}

let make ~code ~severity ~path fmt =
  Format.kasprintf (fun message -> { code; severity; path; message }) fmt

let error ~code ~path fmt = make ~code ~severity:Error ~path fmt
let warning ~code ~path fmt = make ~code ~severity:Warning ~path fmt

let severity_label = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let render d =
  Printf.sprintf "%s[%s] %s: %s" (severity_label d.severity) d.code d.path
    d.message

let is_error d = d.severity = Error
let errors ds = List.filter is_error ds

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

(* Byte-stable order for CI diffing: severity, then catalogue code,
   then location. The message participates last so that distinct
   findings sharing a location are deduplicated only when they are
   truly identical, never collapsed. *)
let compare a b =
  let c = Int.compare (severity_rank a.severity) (severity_rank b.severity) in
  if c <> 0 then c
  else
    let c = String.compare a.code b.code in
    if c <> 0 then c
    else
      let c = String.compare a.path b.path in
      if c <> 0 then c else String.compare a.message b.message
