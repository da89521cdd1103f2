(* Column [i] of a row: the first left-aligned, the rest right-aligned. *)
let pad i width s =
  let missing = width - String.length s in
  if missing <= 0 then s
  else if i = 0 then s ^ String.make missing ' '
  else String.make missing ' ' ^ s

let render ~header rows =
  let columns = List.length header in
  let normalise row =
    let n = List.length row in
    if n > columns then invalid_arg "Report.render: row too wide"
    else row @ List.init (columns - n) (fun _ -> "")
  in
  let rows = List.map normalise rows in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun acc row -> Stdlib.max acc (String.length (List.nth row i)))
          (String.length h) rows)
      header
  in
  let render_row cells =
    String.concat "  "
      (List.mapi (fun i cell -> pad i (List.nth widths i) cell) cells)
  in
  let separator =
    String.concat "  " (List.map (fun w -> String.make w '-') widths)
  in
  let buffer = Buffer.create 256 in
  Buffer.add_string buffer (render_row header);
  Buffer.add_char buffer '\n';
  Buffer.add_string buffer separator;
  Buffer.add_char buffer '\n';
  List.iter
    (fun row ->
      Buffer.add_string buffer (render_row row);
      Buffer.add_char buffer '\n')
    rows;
  Buffer.contents buffer

let fmt_ms v = Printf.sprintf "%.1f" v
let fmt_factor v = Printf.sprintf "%.2fx" v
let fmt_pct v = Printf.sprintf "%.1f%%" v
