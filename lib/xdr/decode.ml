exception Error of string

type t = { data : string; limit : int; mutable cursor : int }

let of_string ?(pos = 0) ?len data =
  let len = match len with Some l -> l | None -> String.length data - pos in
  if pos < 0 || len < 0 || pos + len > String.length data then
    raise (Error "decode window out of bounds");
  { data; limit = pos + len; cursor = pos }

let pos t = t.cursor
let remaining t = t.limit - t.cursor
let at_end t = t.cursor >= t.limit

let need t n = if remaining t < n then raise (Error (Printf.sprintf "truncated: need %d bytes, have %d" n (remaining t)))

let byte t i = Char.code (String.unsafe_get t.data i)

let uint32 t =
  need t 4;
  let c = t.cursor in
  t.cursor <- c + 4;
  (byte t c lsl 24) lor (byte t (c + 1) lsl 16) lor (byte t (c + 2) lsl 8) lor byte t (c + 3)

let int32 t = Int32.of_int (uint32 t)

let uint64 t =
  let hi = uint32 t in
  let lo = uint32 t in
  Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo)

let int64 = uint64

let bool t =
  match uint32 t with
  | 0 -> false
  | 1 -> true
  | n -> raise (Error (Printf.sprintf "bad boolean %d" n))

let enum t =
  let v = uint32 t in
  if v land 0x80000000 <> 0 then v - 0x100000000 else v

let fixed_opaque t n =
  if n < 0 then raise (Error "negative opaque length");
  need t n;
  let s = String.sub t.data t.cursor n in
  let pad = (4 - (n mod 4)) mod 4 in
  need t (n + pad);
  t.cursor <- t.cursor + n + pad;
  s
[@@nt.alloc_ok "materializes the decoded opaque; the copy is the decoded value"]

let opaque t =
  let n = uint32 t in
  if n > remaining t then raise (Error (Printf.sprintf "opaque length %d exceeds window" n));
  fixed_opaque t n

let string = opaque

let skip_opaque t =
  let n = uint32 t in
  if n > remaining t then raise (Error (Printf.sprintf "opaque length %d exceeds window" n));
  let pad = (4 - (n mod 4)) mod 4 in
  need t (n + pad);
  t.cursor <- t.cursor + n + pad;
  n

let array t dec =
  let n = uint32 t in
  if n * 4 > remaining t then raise (Error (Printf.sprintf "array count %d exceeds window" n));
  let rec go i acc = if i = 0 then List.rev acc else go (i - 1) (dec t :: acc) in
  go n []
[@@nt.alloc_ok "materializes the decoded array as a list; the list is the decoded value"]

let optional t dec = if bool t then Some (dec t) else None

let skip t n =
  need t n;
  t.cursor <- t.cursor + n
