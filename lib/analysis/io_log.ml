module Record = Nt_trace.Record
module Ops = Nt_nfs.Ops

type access = {
  at : float;
  offset : int;
  count : int;
  is_read : bool;
  at_eof : bool;
  file_size : int;
}

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
