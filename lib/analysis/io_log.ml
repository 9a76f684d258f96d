module Record = Nt_trace.Record
module Ops = Nt_nfs.Ops
module Fh = Nt_nfs.Fh

type access = {
  at : float;
  offset : int;
  count : int;
  is_read : bool;
  at_eof : bool;
  file_size : int;
}

module Fh_tbl = Hashtbl.Make (struct
  type t = Fh.t

  let equal = Fh.equal
  let hash = Fh.hash
end)

type file_log = { mutable items : access list }

type t = { files : file_log Fh_tbl.t; mutable total : int }

let create () = { files = Fh_tbl.create 1024; total = 0 }

let log_for t fh =
  match Fh_tbl.find_opt t.files fh with
  | Some l -> l
  | None ->
      let l = { items = [] } in
      Fh_tbl.add t.files fh l;
      l
[@@nt.unbounded "one log per distinct file handle; the per-file journal is the store's product"]

let of_record (r : Record.t) =
  match r.call with
  | Ops.Read { fh; offset; count } ->
      let moved, eof, size =
        match r.result with
        | Some (Ok (Ops.R_read { count = c; eof; attr })) ->
            let size =
              match attr with Some a -> Int64.to_int a.size | None -> Int64.to_int offset + c
            in
            (c, eof, size)
        | _ -> (count, false, Int64.to_int offset + count)
      in
      if moved > 0 then
        Some
          ( fh,
            {
              at = r.time;
              offset = Int64.to_int offset;
              count = moved;
              is_read = true;
              at_eof = eof || Int64.to_int offset + moved >= size;
              file_size = size;
            } )
      else None
  | Ops.Write { fh; offset; count; _ } ->
      let size =
        match Record.post_size r with
        | Some s -> Int64.to_int s
        | None -> Int64.to_int offset + count
      in
      (* Only READ replies carry an EOF flag on the wire; a write that
         extends the file always ends at the new EOF, so using it as a
         run terminator would shatter every append into single-access
         runs (and the paper's Figure 5 shows multi-megabyte write
         runs, so its splitter cannot have done that). *)
      if count > 0 then
        Some
          ( fh,
            {
              at = r.time;
              offset = Int64.to_int offset;
              count;
              is_read = false;
              at_eof = false;
              file_size = size;
            } )
      else None
  | _ -> None

let observe t r =
  match of_record r with
  | Some (fh, access) ->
      let l = log_for t fh in
      l.items <- access :: l.items;
      t.total <- t.total + 1
  | None -> ()
[@@nt.alloc_ok "the journal entry is the product: one access kept per I/O"]
[@@nt.unbounded "access journal, one entry per I/O by design; the experiments replay it"]

let files t = Fh_tbl.length t.files
let accesses t = t.total

let iter_files t f =
  Fh_tbl.iter
    (fun fh l ->
      let arr = Array.of_list (List.rev l.items) in
      f fh arr)
    t.files
