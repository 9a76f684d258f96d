(* The in-place text parser that Record.parse_slice's single-walk
   scanner replaced, kept as it was as a two-way differential oracle for
   test_trace: on every line the two must give the same verdict, and
   equal records where both accept. It finds each field's end first and
   converts the field in a second walk, with a 70-slot key table cleared
   per line (DESIGN.md §18). *)

module Ops = Nt_nfs.Ops
module Proc = Nt_nfs.Proc
module Types = Nt_nfs.Types
module Fh = Nt_nfs.Fh
module Ip_addr = Nt_net.Ip_addr

(* One cursor walks the line in place. The helpers are top-level
   functions over (line, start, stop), so a line allocates only the
   record, its handles and its names. A malformed field raises
   [Malformed], which never leaves [parse_slice]. *)
exception Malformed of string

let malformed msg = raise_notrace (Malformed msg)

(* Keys a record keeps: the call half's before [first_reply_key], the
   reply half's from it on. A token matches only keys of its own half. *)
let keys =
  [|
    "fh"; "off"; "count"; "dir"; "name"; "acc"; "stable"; "mode"; "excl"; "target"; "todir";
    "toname"; "cookie"; "ssize"; "smode"; "suid"; "sgid"; "satime"; "smtime";
    "status"; "size"; "fileid"; "ftype"; "mtime"; "rcount"; "eof"; "rfh"; "racc"; "rtarget";
    "committed"; "tbytes"; "fbytes"; "rtmax"; "wtmax"; "namemax";
  |]

let k_fh = 0 and k_off = 1 and k_count = 2 and k_dir = 3 and k_name = 4 and k_acc = 5
and k_stable = 6 and k_mode = 7 and k_excl = 8 and k_target = 9 and k_todir = 10
and k_toname = 11 and k_cookie = 12 and k_ssize = 13 and k_smode = 14 and k_suid = 15
and k_sgid = 16 and k_satime = 17 and k_smtime = 18 and first_reply_key = 19
and k_status = 19 and k_size = 20 and k_fileid = 21 and k_ftype = 22 and k_mtime = 23
and k_rcount = 24 and k_eof = 25 and k_rfh = 26 and k_racc = 27 and k_rtarget = 28
and k_committed = 29 and k_tbytes = 30 and k_fbytes = 31 and k_rtmax = 32 and k_wtmax = 33
and k_namemax = 34

let missing = Array.map (fun k -> "missing " ^ k) keys
let bad_value = Array.map (fun k -> "bad " ^ k) keys
let procs = Array.of_list Proc.all
let proc_names = Array.map Proc.to_string procs

(* Per-domain cursor: slot 2k is where key k's value starts in [line]
   (-1: absent), slot 2k+1 where it ends. Reused line after line. *)
type cursor = { slots : int array; mutable line : string }

let cursors =
  Domain.DLS.new_key (fun () -> { slots = Array.make (2 * Array.length keys) (-1); line = "" })

let rec field_end s i stop =
  if i < stop && String.unsafe_get s i <> ' ' then field_end s (i + 1) stop else i

(* End of the column after the one ending at [e]. *)
let column s e stop = if e < stop then field_end s (e + 1) stop else malformed "too few fields"

let rec equal_at s pos lit i len =
  i = len
  || (String.unsafe_get s (pos + i) = String.unsafe_get lit i && equal_at s pos lit (i + 1) len)

(* Names are matched by length, then bytes. *)
let slice_is s pos len lit = String.length lit = len && equal_at s pos lit 0 len

let rec find_key s pos len k stop =
  if k = stop then -1
  else if slice_is s pos len keys.(k) then k
  else find_key s pos len (k + 1) stop

let rec find_proc s pos len i =
  if i = Array.length procs then malformed "bad proc"
  else if slice_is s pos len proc_names.(i) then procs.(i)
  else find_proc s pos len (i + 1)

(* --- values: each [*_at s i stop msg] parses s.[i .. stop-1] --- *)

let hex_value c =
  match c with
  | '0' .. '9' -> Char.code c - 48
  | 'a' .. 'f' -> Char.code c - 87
  | 'A' .. 'F' -> Char.code c - 55
  | _ -> -1

let rec digits_end s i stop =
  if i < stop && String.unsafe_get s i >= '0' && String.unsafe_get s i <= '9' then
    digits_end s (i + 1) stop
  else i

let rec digits_value s i stop acc =
  if i >= stop then acc
  else digits_value s (i + 1) stop ((acc * 10) + Char.code (String.unsafe_get s i) - 48)

let copy s i stop = String.sub s i (stop - i)
[@@nt.alloc_ok
  "fallback for numbers past 18 digits and floats outside the %.6f fast path; the writer's \
   own lines never take it"]

(* Decimal fields are [-]digits and nothing else, so int_of_string's
   literal forms (0x, 0o, 0b, 0u, _, +) are rejected. Returns where the
   digits start. *)
let decimal s i stop msg =
  let d = if i < stop && String.unsafe_get s i = '-' then i + 1 else i in
  if d = stop || digits_end s d stop < stop then malformed msg else d

let signed s i d stop = if d > i then -digits_value s d stop 0 else digits_value s d stop 0

(* Up to 18 digits fit an int outright; longer runs go through the
   stdlib parsers, which check overflow. *)
let int_at s i stop msg =
  let d = decimal s i stop msg in
  if stop - d <= 18 then signed s i d stop
  else match int_of_string_opt (copy s i stop) with Some v -> v | None -> malformed msg

let i64_at s i stop msg =
  let d = decimal s i stop msg in
  if stop - d <= 18 then Int64.of_int (signed s i d stop)
  else match Int64.of_string_opt (copy s i stop) with Some v -> v | None -> malformed msg

(* The xid column: hex digits, at most 63 bits. The writer's %08x of a
   negative int is its 63-bit pattern, so values past max_int wrap. *)
let rec hex_at s i stop acc =
  if i = stop then acc
  else
    let d = hex_value (String.unsafe_get s i) in
    if d < 0 || acc lsr 59 <> 0 then malformed "bad xid"
    else hex_at s (i + 1) stop ((acc lsl 4) lor d)

let pow10 =
  [| 1.; 1e1; 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9; 1e10; 1e11; 1e12; 1e13; 1e14; 1e15; 1e16;
     1e17; 1e18 |]

(* [-]digits[.digits], at most 18 digits, mantissa m below 2^53: m and
   10^k (k <= 18 <= 22) are exact doubles, so one IEEE division rounds
   the true quotient once, as float_of_string does. Every other
   spelling goes to float_of_string itself. *)
let float_at s i stop msg =
  let d = if i < stop && String.unsafe_get s i = '-' then i + 1 else i in
  let ie = digits_end s d stop in
  let fe = if ie < stop && String.unsafe_get s ie = '.' then digits_end s (ie + 1) stop else ie in
  let k = if fe > ie then fe - ie - 1 else 0 in
  let m =
    if ie > d && fe = stop && ie - d + k <= 18 then
      digits_value s (ie + 1) fe (digits_value s d ie 0)
    else -1
  in
  if m < 0 || m >= 1 lsl 53 then
    match float_of_string_opt (copy s i stop) with Some f -> f | None -> malformed msg
  else if d > i then -.(Float.of_int m /. pow10.(k))
  else Float.of_int m /. pow10.(k)

let time_at s i stop msg = Types.time_of_float (float_at s i stop msg)
let epoch = Types.time_of_float 0.

let ip_at s i stop msg =
  match Ip_addr.of_slice s ~pos:i ~len:(stop - i) with Some ip -> ip | None -> malformed msg

let fh_at s i stop msg =
  match Fh.of_hex_slice s ~pos:i ~len:(stop - i) with Some fh -> fh | None -> malformed msg

let rec unescape b s i stop msg =
  if i >= stop then Buffer.contents b
  else if s.[i] <> '%' then begin
    Buffer.add_char b s.[i];
    unescape b s (i + 1) stop msg
  end
  else if i + 2 < stop && hex_value s.[i + 1] >= 0 && hex_value s.[i + 2] >= 0 then begin
    Buffer.add_char b (Char.chr ((hex_value s.[i + 1] lsl 4) lor hex_value s.[i + 2]));
    unescape b s (i + 3) stop msg
  end
  else malformed msg
[@@nt.alloc_ok "decodes a name holding %XX escapes, which the writer emits only for unsafe bytes"]

let rec has_escape s i stop = i < stop && (String.unsafe_get s i = '%' || has_escape s (i + 1) stop)

(* A name is copied out once; every '%' must start a %XX escape. *)
let name_at s i stop msg =
  if has_escape s i stop then unescape (Buffer.create (stop - i)) s i stop msg else copy s i stop
[@@nt.alloc_ok "a name or link target is copied out of the line once, as the record's own value"]

(* --- key=value tokens --- *)

let rec index_eq s i stop =
  if i = stop || String.unsafe_get s i = '=' then i else index_eq s (i + 1) stop

(* Note where each known key's value lies; the first occurrence wins.
   Tokens without '=' and unknown keys are ignored. Returns whether a
   lone "|" opened the reply half. *)
let scan_pairs slots s i stop =
  let i = ref i and reply = ref false in
  while !i < stop do
    let e = field_end s !i stop in
    let eq = index_eq s !i e in
    let k =
      if eq = e then -1
      else if !reply then find_key s !i (eq - !i) first_reply_key (Array.length keys)
      else find_key s !i (eq - !i) 0 first_reply_key
    in
    if e - !i = 1 && s.[!i] = '|' && not !reply then reply := true
    else if k >= 0 && slots.(2 * k) < 0 then begin
      slots.(2 * k) <- eq + 1;
      slots.((2 * k) + 1) <- e
    end;
    i := e + 1
  done;
  !reply

let has c k = c.slots.(2 * k) >= 0

let req at c k =
  let i = c.slots.(2 * k) in
  if i < 0 then malformed missing.(k) else at c.line i c.slots.((2 * k) + 1) bad_value.(k)

let opt at c k = if has c k then Some (req at c k) else None
let default at c k d = if has c k then req at c k else d

(* excl and eof are true only when spelled "1"; ftype keeps DIR and LNK. *)
let is c k lit =
  let i = c.slots.(2 * k) in
  i >= 0 && slice_is c.line i (c.slots.((2 * k) + 1) - i) lit

let req_fh c = req fh_at c k_fh
let req_dir c = req fh_at c k_dir
let req_name c = req name_at c k_name

let decode_call c (p : Proc.t) : Ops.call =
  match p with
  | Null | Root | Writecache -> Null
  | Getattr -> Getattr (req_fh c)
  | Readlink -> Readlink (req_fh c)
  | Statfs -> Statfs (req_fh c)
  | Fsinfo -> Fsinfo (req_fh c)
  | Pathconf -> Pathconf (req_fh c)
  | Setattr ->
      let set_size = opt i64_at c k_ssize and set_mode = opt int_at c k_smode in
      let set_uid = opt int_at c k_suid and set_gid = opt int_at c k_sgid in
      let set_atime = opt time_at c k_satime and set_mtime = opt time_at c k_smtime in
      let attrs = { Types.set_size; set_mode; set_uid; set_gid; set_atime; set_mtime } in
      Setattr { fh = req_fh c; attrs }
  | Lookup -> Lookup { dir = req_dir c; name = req_name c }
  | Access -> Access { fh = req_fh c; access = req int_at c k_acc }
  | Read -> Read { fh = req_fh c; offset = req i64_at c k_off; count = req int_at c k_count }
  | Commit -> Commit { fh = req_fh c; offset = req i64_at c k_off; count = req int_at c k_count }
  | Write ->
      let stable = Types.stable_how_of_int (default int_at c k_stable 2) in
      Write { fh = req_fh c; offset = req i64_at c k_off; count = req int_at c k_count; stable }
  | Create ->
      let mode = default int_at c k_mode 0o644 and exclusive = is c k_excl "1" in
      Create { dir = req_dir c; name = req_name c; mode; exclusive }
  | Mkdir -> Mkdir { dir = req_dir c; name = req_name c; mode = default int_at c k_mode 0o755 }
  | Symlink -> Symlink { dir = req_dir c; name = req_name c; target = req name_at c k_target }
  | Mknod -> Mknod { dir = req_dir c; name = req_name c }
  | Remove -> Remove { dir = req_dir c; name = req_name c }
  | Rmdir -> Rmdir { dir = req_dir c; name = req_name c }
  | Rename ->
      let to_dir = req fh_at c k_todir and to_name = req name_at c k_toname in
      Rename { from_dir = req_dir c; from_name = req_name c; to_dir; to_name }
  | Link -> Link { fh = req_fh c; to_dir = req fh_at c k_todir; to_name = req name_at c k_toname }
  | Readdir ->
      let cookie = req i64_at c k_cookie in
      Readdir { dir = req_dir c; cookie; count = req int_at c k_count }
  | Readdirplus ->
      let cookie = req i64_at c k_cookie in
      Readdirplus { dir = req_dir c; cookie; count = req int_at c k_count }

(* The text form keeps four attributes; an attr is present iff size is. *)
let attr c =
  if not (has c k_size) then None
  else
    let ftype : Types.ftype =
      if is c k_ftype "DIR" then Dir else if is c k_ftype "LNK" then Lnk else Reg
    in
    let size = req i64_at c k_size and fileid = default i64_at c k_fileid 0L in
    Some { Types.default_fattr with size; fileid; ftype; mtime = default time_at c k_mtime epoch }

let decode_success c (p : Proc.t) : Ops.success =
  match p with
  | Null | Root | Writecache -> R_null
  | Getattr | Setattr -> ( match attr c with Some a -> R_attr a | None -> R_empty)
  | Lookup -> (
      match opt fh_at c k_rfh with
      | Some fh -> R_lookup { fh; obj = attr c; dir = None }
      | None -> R_empty)
  | Access -> R_access (default int_at c k_racc 0)
  | Readlink -> R_readlink (default name_at c k_rtarget "")
  | Read -> R_read { attr = attr c; count = default int_at c k_rcount 0; eof = is c k_eof "1" }
  | Write ->
      let committed = Types.stable_how_of_int (default int_at c k_committed 2) in
      R_write { count = default int_at c k_rcount 0; committed; attr = attr c }
  | Create | Mkdir | Symlink | Mknod -> R_create { fh = opt fh_at c k_rfh; attr = attr c }
  | Remove | Rmdir | Rename | Link | Commit -> R_empty
  | Readdir | Readdirplus -> R_readdir { entries = []; eof = is c k_eof "1" }
  | Statfs ->
      let total_bytes = default i64_at c k_tbytes 0L in
      R_statfs { total_bytes; free_bytes = default i64_at c k_fbytes 0L }
  | Fsinfo ->
      let rtmax = default int_at c k_rtmax 32768 in
      R_fsinfo { rtmax; wtmax = default int_at c k_wtmax 32768 }
  | Pathconf -> R_pathconf { name_max = default int_at c k_namemax 255 }

(* A reply half without a status is a lost reply. *)
let decode_result c p =
  if not (has c k_status) then None
  else
    let code = req int_at c k_status in
    if code = 0 then Some (Ok (decode_success c p)) else Some (Error (Types.nfsstat_of_int code))

let parse_fields c s pos stop : Nt_trace.Record.t =
  let e1 = field_end s pos stop in
  let e2 = column s e1 stop in
  let e3 = column s e2 stop in
  let e4 = column s e3 stop in
  let e5 = column s e4 stop in
  let e6 = column s e5 stop in
  let e7 = column s e6 stop in
  let e8 = column s e7 stop in
  let e9 = column s e8 stop in
  let time = float_at s pos e1 "bad time" in
  let reply_time =
    if e2 - e1 = 2 && s.[e1 + 1] = '-' then None else Some (float_at s (e1 + 1) e2 "bad reply time")
  in
  let version =
    if e3 - e2 = 3 && s.[e2 + 1] = 'v' && (s.[e2 + 2] = '2' || s.[e2 + 2] = '3') then
      Char.code s.[e2 + 2] - 48
    else malformed "bad version"
  in
  let client = ip_at s (e3 + 1) e4 "bad client ip" in
  let server = ip_at s (e4 + 1) e5 "bad server ip" in
  let xid = if e6 - e5 = 1 then malformed "bad xid" else hex_at s (e5 + 1) e6 0 in
  let uid = int_at s (e6 + 1) e7 "bad uid" and gid = int_at s (e7 + 1) e8 "bad gid" in
  let p = find_proc s (e8 + 1) (e9 - e8 - 1) 0 in
  Array.fill c.slots 0 (Array.length c.slots) (-1);
  c.line <- s;
  let reply = e9 < stop && scan_pairs c.slots s (e9 + 1) stop in
  let call = decode_call c p in
  let result = if reply then decode_result c p else None in
  { time; reply_time; client; server; version; xid; uid; gid; call; result }

let parse_slice s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then Error "bad slice"
  else
    match parse_fields (Domain.DLS.get cursors) s pos (pos + len) with
    | r -> Ok r
    | exception Malformed msg -> Error msg

let of_line line = parse_slice line ~pos:0 ~len:(String.length line)
