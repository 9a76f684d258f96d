let render ?title ~header rows =
  List.iter (fun r -> assert (List.length r = List.length header)) rows;
  let all = header :: rows in
  let cols = List.length header in
  let width = Array.make cols 0 in
  List.iter
    (fun row ->
      List.iteri (fun i cell -> width.(i) <- max width.(i) (String.length cell)) row)
    all;
  let buf = Buffer.create 1024 in
  (match title with
  | Some t ->
      Buffer.add_string buf t;
      Buffer.add_char buf '\n'
  | None -> ());
  let pad i cell =
    let n = width.(i) - String.length cell in
    if i = 0 then cell ^ String.make n ' ' else String.make n ' ' ^ cell
  in
  let emit_row row =
    List.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf (pad i cell))
      row;
    Buffer.add_char buf '\n'
  in
  emit_row header;
  let rule = String.concat "--" (Array.to_list (Array.map (fun w -> String.make w '-') width)) in
  Buffer.add_string buf rule;
  Buffer.add_char buf '\n';
  List.iter emit_row rows;
  Buffer.contents buf
[@@nt.raise_ok
  "every caller builds rows with a literal list per column of its literal header, so a width \
   mismatch is a programming error, not data-dependent"]

let fmt_float ?(decimals = 2) x = Printf.sprintf "%.*f" decimals x
let fmt_pct ?(decimals = 1) x = Printf.sprintf "%.*f%%" decimals x

let fmt_bytes x =
  let abs = Float.abs x in
  if abs >= 1024. ** 3. then Printf.sprintf "%.1f GB" (x /. (1024. ** 3.))
  else if abs >= 1024. ** 2. then Printf.sprintf "%.1f MB" (x /. (1024. ** 2.))
  else if abs >= 1024. then Printf.sprintf "%.1f KB" (x /. 1024.)
  else Printf.sprintf "%.0f B" x

let fmt_duration s =
  if s < 1. then Printf.sprintf "%.2f s" s
  else if s < 120. then Printf.sprintf "%.1f s" s
  else if s < 7200. then Printf.sprintf "%.1f min" (s /. 60.)
  else if s < 2. *. 86400. then Printf.sprintf "%.1f hours" (s /. 3600.)
  else Printf.sprintf "%.1f days" (s /. 86400.)
