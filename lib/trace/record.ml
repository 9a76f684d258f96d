module Ops = Nt_nfs.Ops
module Proc = Nt_nfs.Proc
module Types = Nt_nfs.Types
module Fh = Nt_nfs.Fh
module Ip_addr = Nt_net.Ip_addr

type t = {
  time : float;
  reply_time : float option;
  client : Ip_addr.t;
  server : Ip_addr.t;
  version : int;
  xid : int;
  uid : int;
  gid : int;
  call : Ops.call;
  result : Ops.result option;
}

let proc t = Ops.proc_of_call t.call
let fh t = Ops.call_fh t.call
let name t = Ops.call_name t.call

let target_fh t =
  match t.result with
  | Some (Ok (Ops.R_lookup { fh; _ })) -> Some fh
  | Some (Ok (Ops.R_create { fh = Some fh; _ })) -> Some fh
  | _ -> fh t

let offset t =
  match t.call with
  | Read { offset; _ } | Write { offset; _ } | Commit { offset; _ } -> Some offset
  | _ -> None

let count t =
  match t.call with
  | Read { count; _ } | Write { count; _ } | Commit { count; _ } -> Some count
  | _ -> None

let io_bytes t =
  match t.call with
  | Read { count; _ } -> (
      match t.result with
      | Some (Ok (Ops.R_read { count = rc; _ })) -> rc
      | Some (Error _) -> 0
      | _ -> count)
  | Write { count; _ } -> (
      match t.result with
      | Some (Ok (Ops.R_write { count = rc; _ })) when rc > 0 -> rc
      | Some (Error _) -> 0
      | _ -> count)
  | _ -> 0

let post_fattr t =
  match t.result with
  | Some (Ok (Ops.R_attr a)) -> Some a
  | Some (Ok (Ops.R_lookup { obj = Some a; _ })) -> Some a
  | Some (Ok (Ops.R_read { attr = Some a; _ })) -> Some a
  | Some (Ok (Ops.R_write { attr = Some a; _ })) -> Some a
  | Some (Ok (Ops.R_create { attr = Some a; _ })) -> Some a
  | _ -> None

let post_size t = match post_fattr t with Some a -> Some a.size | None -> None

let status t =
  match t.result with
  | None -> None
  | Some (Ok _) -> Some Types.Ok_
  | Some (Error st) -> Some st

let is_ok t = match t.result with Some (Ok _) -> true | _ -> false

(* --- text serialization (DESIGN.md §18, "Writing") --- *)

let needs_escape c =
  match c with ' ' | '%' | '|' | '=' | '\n' | '\t' | '\r' -> true | c -> Char.code c < 32

let hex_digit n = "0123456789abcdef".[n]

(* The two hex digits of byte [c] at [2c]. *)
let hex_pairs =
  String.init 512 (fun i -> hex_digit (if i land 1 = 0 then i lsr 5 else (i lsr 1) land 0xF))

(* The two decimal digits of [r < 100] at [2r]. *)
let digit_pairs =
  String.init 200 (fun i -> Char.unsafe_chr (48 + if i land 1 = 0 then i / 20 else i / 2 mod 10))

(* The writer renders a line into a per-domain byte scratch, field by
   field, and appends it to the caller's buffer with one blit. Each
   [put_*] writes at [pos] and returns the position after the field.
   The scratch keeps [line_room] bytes free past the start of every
   variable-length field (names, handles and the C formatter's
   fallbacks), which reserve their own length first; every other field
   of a line fits in those bytes together (a line's fixed-size fields
   come to about 500 bytes at most), so they write without a check.
   Floats and the xid print the bytes of their sprintf renderings: a
   fast path writes the digits only where it can prove them, and
   everything else goes to the C formatter Printf itself calls. *)
type scratch = { mutable buf : Bytes.t }

let line_room = 1024
let scratches = Domain.DLS.new_key (fun () -> { buf = Bytes.create (2 * line_room) })

let grow sc pos need =
  let b = Bytes.create (max need (2 * Bytes.length sc.buf)) in
  Bytes.blit sc.buf 0 b 0 pos;
  sc.buf <- b
[@@nt.alloc_ok "the line scratch doubles past its largest line so far; it never shrinks"]

(* Make room for an [n]-byte field at [pos] and the line's fixed fields. *)
let[@inline] reserve sc pos n =
  if pos + n + line_room > Bytes.length sc.buf then grow sc pos (pos + n + line_room)

let put_char sc pos c =
  Bytes.set sc.buf pos c;
  pos + 1

let rec put_bytes b pos s i n =
  if i < n then begin
    Bytes.set b (pos + i) (String.unsafe_get s i);
    put_bytes b pos s (i + 1) n
  end

(* A literal of the writer's own, a key or a column separator: a few
   bytes, cheaper stored one by one than blitted. *)
let put_lit sc pos s =
  put_bytes sc.buf pos s 0 (String.length s);
  pos + String.length s

let put_string sc pos s =
  reserve sc pos (String.length s);
  Bytes.blit_string s 0 sc.buf pos (String.length s);
  pos + String.length s

external format_float : string -> float -> string = "caml_format_float"
external format_int : string -> int -> string = "caml_format_int"

(* Unchecked 16-bit loads and stores, for the table reads (a pair
   index is below the table's length) and the digit and handle stores
   (the field's bytes are inside the room reserved for it). *)
external get16 : string -> int -> int = "%caml_string_get16u"
external set16 : bytes -> int -> int -> unit = "%caml_bytes_set16u"

(* Decimal digits in [n >= 0]. *)
let rec digit_count n k p = if k = 19 || n < p then k else digit_count n (k + 1) (p * 10)

(* The digits of [n >= 0] ending just before [e], two at a time. *)
let rec put_pairs b e n =
  if n >= 10 then begin
    let q = n / 100 in
    set16 b (e - 2) (get16 digit_pairs (2 * (n - (q * 100))));
    if q > 0 then put_pairs b (e - 2) q
  end
  else Bytes.unsafe_set b (e - 1) (Char.unsafe_chr (48 + n))

(* [n < 10^w] in exactly [w] digits ending just before [e]. *)
let rec put_padded b e n w =
  if w >= 2 then begin
    let q = n / 100 in
    set16 b (e - 2) (get16 digit_pairs (2 * (n - (q * 100))));
    put_padded b (e - 2) q (w - 2)
  end
  else if w = 1 then Bytes.unsafe_set b (e - 1) (Char.unsafe_chr (48 + n))

let put_digits sc pos n =
  let e = pos + digit_count n 1 10 in
  put_pairs sc.buf e n;
  e

let put_int sc pos n = if n >= 0 then put_digits sc pos n else put_string sc pos (string_of_int n)

let put_int64 sc pos v =
  if Int64.compare v 0L >= 0 && Int64.compare v (Int64.of_int max_int) <= 0 then
    put_digits sc pos (Int64.to_int v)
  else put_string sc pos (Int64.to_string v)

(* [frac *. scale] rounded to the nearest integer, or -1 when that
   product lies within 1e-6 of a half. [frac], the fraction of a double,
   and [scale], a power of ten up to 1e7, are exact, so the one rounding
   of the product errs by at most 2^-53 * 1e7 < 1.2e-9: outside the
   window the exact product rounds to the same integer, inside it only
   the C formatter knows. Inlined, like [put_float], so that no float
   argument is boxed. *)
let[@inline] round_scaled frac scale =
  let y = frac *. scale in
  let n = Float.to_int y in
  let d = y -. Float.of_int n in
  if Float.abs (d -. 0.5) < 1e-6 then -1 else if d > 0.5 then n + 1 else n

(* [Printf.sprintf "%.6f" t]. *)
let[@inline] put_fixed6 sc pos t =
  let us =
    if not (t > 0. && t < 9e15) then -1 else round_scaled (t -. Float.of_int (Float.to_int t)) 1e6
  in
  if us < 0 then put_string sc pos (format_float "%.6f" t)
  else begin
    let pos = put_digits sc pos (Float.to_int t + (us / 1_000_000)) in
    Bytes.set sc.buf pos '.';
    put_padded sc.buf (pos + 7) (us mod 1_000_000) 6;
    pos + 7
  end

let pow10_int = [| 1; 10; 100; 1_000; 10_000; 100_000; 1_000_000; 10_000_000 |]

(* The [w] digits of [n < 10^w] with the trailing zeros dropped. *)
let rec put_fraction sc pos n w =
  if w = 0 then pos
  else if n mod 10 = 0 then put_fraction sc pos (n / 10) (w - 1)
  else begin
    put_padded sc.buf (pos + w) n w;
    pos + w
  end

(* [string_of_float x]: "%.12g", then a '.' when only digits remain.
   For [1e4 <= x < 1e11] that is the integer part and [12 - digits]
   rounded fraction digits, trailing zeros dropped. A round that
   carries into a new integer digit yields [10^digits], which %g, its
   exponent still below 12, prints as those digits and no fraction. *)
let[@inline] put_float sc pos x =
  let ip = if x >= 1e4 && x < 1e11 then Float.to_int x else 0 in
  let w = if ip = 0 then 0 else 12 - digit_count ip 1 10 in
  let scale = pow10_int.(w) in
  let f = if ip = 0 then -1 else round_scaled (x -. Float.of_int ip) (Float.of_int scale) in
  if f < 0 then put_string sc pos (string_of_float x)
  else begin
    let pos = put_digits sc pos (ip + (f / scale)) in
    Bytes.set sc.buf pos '.';
    put_fraction sc (pos + 1) (f mod scale) w
  end

(* [Printf.sprintf "%08x" xid]. *)
let put_xid sc pos xid =
  if xid < 0 || xid > 0xFFFF_FFFF then put_string sc pos (format_int "%08x" xid)
  else begin
    let b = sc.buf in
    for i = 0 to 3 do
      let byte = (xid lsr (24 - (8 * i))) land 0xFF in
      set16 b (pos + (2 * i)) (get16 hex_pairs (2 * byte))
    done;
    pos + 8
  end

let put_ip sc pos ip =
  let pos = put_digits sc pos ((ip lsr 24) land 0xFF) in
  let pos = put_digits sc (put_char sc pos '.') ((ip lsr 16) land 0xFF) in
  let pos = put_digits sc (put_char sc pos '.') ((ip lsr 8) land 0xFF) in
  put_digits sc (put_char sc pos '.') (ip land 0xFF)

let put_fh sc pos key fh =
  let s = Fh.to_raw fh in
  let n = String.length s in
  let pos = put_lit sc pos key in
  reserve sc pos (2 * n);
  let b = sc.buf in
  for i = 0 to n - 1 do
    set16 b (pos + (2 * i)) (get16 hex_pairs (2 * Char.code (String.unsafe_get s i)))
  done;
  pos + (2 * n)

let rec put_escaped b s i n pos =
  if i = n then pos
  else
    let c = String.unsafe_get s i in
    if needs_escape c then begin
      Bytes.unsafe_set b pos '%';
      set16 b (pos + 1) (get16 hex_pairs (2 * Char.code c));
      put_escaped b s (i + 1) n (pos + 3)
    end
    else begin
      Bytes.unsafe_set b pos c;
      put_escaped b s (i + 1) n (pos + 1)
    end

let put_name sc pos key s =
  let pos = put_lit sc pos key in
  reserve sc pos (3 * String.length s);
  put_escaped sc.buf s 0 (String.length s) pos

let put_kint sc pos key n = put_int sc (put_lit sc pos key) n
let put_kint64 sc pos key v = put_int64 sc (put_lit sc pos key) v
let put_kbool sc pos key v = put_char sc (put_lit sc pos key) (if v then '1' else '0')
let put_ktime sc pos key t = put_float sc (put_lit sc pos key) (Types.time_to_float t)

let put_opt_int sc pos key = function Some n -> put_kint sc pos key n | None -> pos
let put_opt_time sc pos key = function Some t -> put_ktime sc pos key t | None -> pos

let put_call sc pos (c : Ops.call) =
  match c with
  | Null -> pos
  | Getattr fh | Readlink fh | Statfs fh | Fsinfo fh | Pathconf fh -> put_fh sc pos " fh=" fh
  | Setattr { fh; attrs } ->
      let pos = put_fh sc pos " fh=" fh in
      let pos = match attrs.set_size with Some v -> put_kint64 sc pos " ssize=" v | None -> pos in
      let pos = put_opt_int sc pos " smode=" attrs.set_mode in
      let pos = put_opt_int sc pos " suid=" attrs.set_uid in
      let pos = put_opt_int sc pos " sgid=" attrs.set_gid in
      let pos = put_opt_time sc pos " satime=" attrs.set_atime in
      put_opt_time sc pos " smtime=" attrs.set_mtime
  | Lookup { dir; name } | Mknod { dir; name } | Remove { dir; name } | Rmdir { dir; name } ->
      put_name sc (put_fh sc pos " dir=" dir) " name=" name
  | Access { fh; access } -> put_kint sc (put_fh sc pos " fh=" fh) " acc=" access
  | Read { fh; offset; count } | Commit { fh; offset; count } ->
      let pos = put_kint64 sc (put_fh sc pos " fh=" fh) " off=" offset in
      put_kint sc pos " count=" count
  | Write { fh; offset; count; stable } ->
      let pos = put_kint64 sc (put_fh sc pos " fh=" fh) " off=" offset in
      let pos = put_kint sc pos " count=" count in
      put_kint sc pos " stable=" (Types.stable_how_to_int stable)
  | Create { dir; name; mode; exclusive } ->
      let pos = put_name sc (put_fh sc pos " dir=" dir) " name=" name in
      put_kbool sc (put_kint sc pos " mode=" mode) " excl=" exclusive
  | Mkdir { dir; name; mode } ->
      put_kint sc (put_name sc (put_fh sc pos " dir=" dir) " name=" name) " mode=" mode
  | Symlink { dir; name; target } ->
      put_name sc (put_name sc (put_fh sc pos " dir=" dir) " name=" name) " target=" target
  | Rename { from_dir; from_name; to_dir; to_name } ->
      let pos = put_name sc (put_fh sc pos " dir=" from_dir) " name=" from_name in
      put_name sc (put_fh sc pos " todir=" to_dir) " toname=" to_name
  | Link { fh; to_dir; to_name } ->
      let pos = put_fh sc (put_fh sc pos " fh=" fh) " todir=" to_dir in
      put_name sc pos " toname=" to_name
  | Readdir { dir; cookie; count } | Readdirplus { dir; cookie; count } ->
      let pos = put_kint64 sc (put_fh sc pos " dir=" dir) " cookie=" cookie in
      put_kint sc pos " count=" count

let put_attr sc pos (a : Types.fattr) =
  let pos = put_kint64 sc pos " size=" a.size in
  let pos = put_kint64 sc pos " fileid=" a.fileid in
  let pos = put_lit sc (put_lit sc pos " ftype=") (Types.ftype_to_string a.ftype) in
  put_ktime sc pos " mtime=" a.mtime

let put_attr_opt sc pos = function Some a -> put_attr sc pos a | None -> pos

let put_result sc pos (r : Ops.result) =
  match r with
  | Error st -> put_kint sc pos " status=" (Types.nfsstat_to_int st)
  | Ok success -> (
      let pos = put_lit sc pos " status=0" in
      match success with
      | R_null | R_empty -> pos
      | R_attr a -> put_attr sc pos a
      | R_lookup { fh; obj; _ } -> put_attr_opt sc (put_fh sc pos " rfh=" fh) obj
      | R_access bits -> put_kint sc pos " racc=" bits
      | R_readlink target -> put_name sc pos " rtarget=" target
      | R_read { attr; count; eof } ->
          put_attr_opt sc (put_kbool sc (put_kint sc pos " rcount=" count) " eof=" eof) attr
      | R_write { count; committed; attr } ->
          let pos = put_kint sc pos " rcount=" count in
          put_attr_opt sc (put_kint sc pos " committed=" (Types.stable_how_to_int committed)) attr
      | R_create { fh; attr } ->
          let pos = match fh with Some fh -> put_fh sc pos " rfh=" fh | None -> pos in
          put_attr_opt sc pos attr
      | R_readdir { entries; eof } ->
          (* Entry lists can be huge and no analysis consumes them from
             saved traces; only the count survives serialization. *)
          put_kbool sc (put_kint sc pos " nentries=" (List.length entries)) " eof=" eof
      | R_statfs { total_bytes; free_bytes } ->
          put_kint64 sc (put_kint64 sc pos " tbytes=" total_bytes) " fbytes=" free_bytes
      | R_fsinfo { rtmax; wtmax } -> put_kint sc (put_kint sc pos " rtmax=" rtmax) " wtmax=" wtmax
      | R_pathconf { name_max } -> put_kint sc pos " namemax=" name_max)

(* The record's line at the start of the scratch; returns its length. *)
let render sc t =
  reserve sc 0 0;
  let pos = put_char sc (put_fixed6 sc 0 t.time) ' ' in
  let pos = match t.reply_time with Some rt -> put_fixed6 sc pos rt | None -> put_char sc pos '-' in
  let pos = put_char sc (put_int sc (put_lit sc pos " v") t.version) ' ' in
  let pos = put_char sc (put_ip sc pos t.client) ' ' in
  let pos = put_char sc (put_ip sc pos t.server) ' ' in
  let pos = put_char sc (put_xid sc pos t.xid) ' ' in
  let pos = put_char sc (put_int sc pos t.uid) ' ' in
  let pos = put_char sc (put_int sc pos t.gid) ' ' in
  let pos = put_call sc (put_lit sc pos (Proc.to_string (proc t))) t.call in
  match t.result with None -> pos | Some r -> put_result sc (put_lit sc pos " |") r

let add_line b t =
  let sc = Domain.DLS.get scratches in
  Buffer.add_subbytes b sc.buf 0 (render sc t)

let to_line t =
  let sc = Domain.DLS.get scratches in
  Bytes.sub_string sc.buf 0 (render sc t)

let output_line oc t =
  let sc = Domain.DLS.get scratches in
  let n = render sc t in
  reserve sc n 1;
  Bytes.unsafe_set sc.buf n '\n';
  output oc sc.buf 0 (n + 1)

let write_channel oc records =
  let n = ref 0 in
  Seq.iter
    (fun r ->
      output_line oc r;
      incr n)
    records;
  !n

(* One field through the scratch, for the field writers' callers. *)
let add_field put b x =
  let sc = Domain.DLS.get scratches in
  Buffer.add_subbytes b sc.buf 0 (put sc 0 x)

let add_fixed6 b t = add_field put_fixed6 b t
let add_float b x = add_field put_float b x
let add_xid b xid = add_field put_xid b xid

(* --- parsing (DESIGN.md §18) --- *)

(* The parser walks the line once. Each fixed column, and the value of
   each known key at its first occurrence in its half, is converted in
   the same walk that finds its end, so the helpers scan from a
   position to the next space (or [stop]) and return where they
   stopped. Helpers are top-level functions over the line and the
   per-domain cursor, so a line allocates only the record, its handles
   and its names. A malformed column raises [Malformed] at once, a
   malformed value when the record reads it; it never leaves
   [parse_slice]. *)
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

(* How the scan converts each key's value. *)
let v_decimal = 0 and v_float = 1 and v_handle = 2 and v_name = 3 and v_flag = 4 and v_ftype = 5

let value_kind =
  Array.map
    (function
      | "fh" | "dir" | "todir" | "rfh" -> v_handle
      | "name" | "target" | "toname" | "rtarget" -> v_name
      | "satime" | "smtime" | "mtime" -> v_float
      | "excl" | "eof" -> v_flag
      | "ftype" -> v_ftype
      | _ -> v_decimal)
    keys

let missing = Array.map (fun k -> "missing " ^ k) keys
let bad_value = Array.map (fun k -> "bad " ^ k) keys
let procs = Array.of_list Proc.all
let proc_names = Array.map Proc.to_string procs

(* Names are found by a hash computed while their bytes are walked: an
   open-addressed table built once, indexed by the hash's low byte and
   holding each name's index. With this multiplier the procedure and key
   names all land in distinct slots, so a hit costs one compare. *)
let[@inline] hash_step h c = (h * 145) + Char.code c
let table_mask = 255

let rec place t h i = if t.(h) < 0 then t.(h) <- i else place t ((h + 1) land table_mask) i

let name_table names =
  let t = Array.make (table_mask + 1) (-1) in
  for i = 0 to Array.length names - 1 do
    place t (String.fold_left hash_step 0 names.(i) land table_mask) i
  done;
  t

let key_table = name_table keys
let proc_table = name_table proc_names

(* Unchecked little-endian word loads: every caller has checked that
   the string holds the 8 (or 4) bytes at [i]. *)
external get64 : string -> int -> int64 = "%caml_string_get64u"
external get32 : string -> int -> int32 = "%caml_string_get32u"
external swap64 : int64 -> int64 = "%bswap_int64"
external swap32 : int32 -> int32 = "%bswap_int32"

let[@inline] le64 s i = Int64.to_int (if Sys.big_endian then swap64 (get64 s i) else get64 s i)
let[@inline] le32 s i = Int32.to_int (if Sys.big_endian then swap32 (get32 s i) else get32 s i)

let rec equal_at s pos lit i len =
  i = len
  || (String.unsafe_get s (pos + i) = String.unsafe_get lit i && equal_at s pos lit (i + 1) len)

(* Names are matched by length, then bytes. *)
let slice_is s pos len lit = String.length lit = len && equal_at s pos lit 0 len

(* A name of at most seven bytes as a word, for [same_name]. *)
let name_word n =
  if String.length n > 7 then 0
  else begin
    let w = ref 0 in
    for i = String.length n - 1 downto 0 do
      w := (!w lsl 8) lor Char.code n.[i]
    done;
    !w
  end

let key_words = Array.map name_word keys
let proc_words = Array.map name_word proc_names

(* [slice_is s pos len names.(i)], a whole word at a time when the name
   is short and the string has eight bytes at [pos]. *)
let[@inline] same_name names words s pos len i =
  if len <= 7 && pos + 8 <= String.length s then
    String.length (Array.unsafe_get names i) = len
    && (le64 s pos lxor Array.unsafe_get words i) land ((1 lsl (8 * len)) - 1) = 0
  else slice_is s pos len (Array.unsafe_get names i)

(* The index of the name at [s.[pos, pos+len)] whose hash is [h], or -1. *)
let rec find_name table names words s pos len h =
  let i = Array.unsafe_get table (h land table_mask) in
  if i < 0 then -1
  else if same_name names words s pos len i then i
  else find_name table names words s pos len ((h land table_mask) + 1)

(* Per-domain cursor, reused line after line. [set] has bit k when key
   k occurred in its half of the current line; only those keys' slots
   are read, so a new line clears the one word. For a set key,
   [state.(k)] says how its value converted, [starts]/[stops] bound it
   in the line, and the value itself is in [ints], [floats] (also the
   two time columns) or, for a handle, [handles] at [64k] with its
   length in [ints]. [v] and [st] carry a helper's value and state back
   to its caller. *)
type cursor = {
  mutable set : int;
  mutable v : int;
  mutable st : int;
  state : int array;
  starts : int array;
  stops : int array;
  ints : int array;
  floats : Float.Array.t;
  handles : Bytes.t;
}

(* Value states: converted, malformed, converted only when read (by the
   stdlib parsers: numbers past 18 digits, floats off the fast path),
   and a name holding '%' escapes. *)
let st_ok = 0 and st_bad = 1 and st_slow = 2 and st_escaped = 3

let slot_time = Array.length keys
let slot_reply_time = slot_time + 1

let cursors =
  Domain.DLS.new_key (fun () ->
      let n = Array.length keys in
      {
        set = 0;
        v = 0;
        st = st_ok;
        state = Array.make n st_ok;
        starts = Array.make n 0;
        stops = Array.make n 0;
        ints = Array.make n 0;
        floats = Float.Array.make (n + 2) 0.;
        handles = Bytes.create (64 * n);
      })

(* --- splitting --- *)

let rec space_byte s i stop =
  if i >= stop || String.unsafe_get s i = ' ' then i else space_byte s (i + 1) stop

(* End of the field at [i]: the first space in [s.[i, stop)], or [stop].
   Seven bytes at a time: a word XORed with spaces has a zero byte
   exactly where a space was, and the zero-byte test says whether the
   word holds one ([newline] below does the same for '\n'). *)
let rec field_end s i stop =
  if i + 8 > stop then space_byte s i stop
  else
    let x = le64 s i land 0xFF_FFFF_FFFF_FFFF lxor 0x20_2020_2020_2020 in
    if (x - 0x01_0101_0101_0101) land lnot x land 0x80_8080_8080_8080 = 0 then field_end s (i + 7) stop
    else space_byte s i stop

(* The start of the column after the one ending at [e]. *)
let next_column e stop = if e < stop then e + 1 else malformed "too few fields"

(* --- values: each scan starts at [i] and returns its field's end --- *)

let hex_values =
  String.init 256 (fun i ->
      match Char.chr i with
      | '0' .. '9' -> Char.chr (i - 48)
      | 'a' .. 'f' -> Char.chr (i - 87)
      | 'A' .. 'F' -> Char.chr (i - 55)
      | _ -> '\xff')

(* A hex digit's value, or 255. *)
let[@inline] hex_at s i = Char.code (String.unsafe_get hex_values (Char.code (String.unsafe_get s i)))

let[@inline] is_digit c = c >= '0' && c <= '9'

let copy s i stop = String.sub s i (stop - i)
[@@nt.alloc_ok
  "fallback for numbers past 18 digits and floats outside the %.6f fast path; the writer's \
   own lines never take it"]

let bad_field c s i stop =
  c.st <- st_bad;
  field_end s i stop

(* The value of the four digits at [j], or -1 if a byte is not a
   digit: the bytes are digits exactly when each high nibble is 3 and
   stays 3 with 6 added. Then two multiply-adds combine the pairs. *)
let[@inline] digits4 s j =
  let w = le32 s j land 0xFFFF_FFFF in
  if (w land 0xF0F0_F0F0) lor (((w + 0x0606_0606) land 0xF0F0_F0F0) lsr 4) <> 0x3333_3333 then -1
  else
    let v = w - 0x3030_3030 in
    let v = ((v * 10) + (v lsr 8)) land 0x00FF_00FF in
    ((v land 0xFF) * 100) + (v lsr 16)

let rec decimal_digits c s neg d j stop acc =
  let q = if j + 4 <= stop then digits4 s j else -1 in
  if q >= 0 then decimal_digits c s neg d (j + 4) stop ((acc * 10_000) + q)
  else if j < stop && is_digit (String.unsafe_get s j) then
    decimal_digits c s neg d (j + 1) stop ((acc * 10) + Char.code (String.unsafe_get s j) - 48)
  else if j < stop && String.unsafe_get s j <> ' ' then bad_field c s j stop
  else begin
    (* Up to 18 digits fit an int outright; longer runs go to the stdlib
       parsers, which check overflow. *)
    c.st <- (if j = d then st_bad else if j - d > 18 then st_slow else st_ok);
    c.v <- (if neg then -acc else acc);
    j
  end

(* Decimal fields are [-]digits and nothing else, so int_of_string's
   literal forms (0x, 0o, 0b, 0u, _, +) are rejected. *)
let decimal c s i stop =
  let neg = i < stop && String.unsafe_get s i = '-' in
  let d = if neg then i + 1 else i in
  decimal_digits c s neg d d stop 0

let int_slow s i stop msg =
  match int_of_string_opt (copy s i stop) with Some v -> v | None -> malformed msg

let i64_slow s i stop msg =
  match Int64.of_string_opt (copy s i stop) with Some v -> v | None -> malformed msg

(* The one conversion the fast path cannot prove: float_of_string's. *)
let float_slow s i stop msg =
  match float_of_string_opt (copy s i stop) with Some f -> f | None -> malformed msg

let pow10 =
  [| 1.; 1e1; 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9; 1e10; 1e11; 1e12; 1e13; 1e14; 1e15; 1e16;
     1e17; 1e18 |]

(* [-]digits[.digits] with at most 18 digits and mantissa m below 2^53:
   m and 10^k (k <= 18 <= 22) are exact doubles, so one IEEE division
   rounds the true quotient once, as float_of_string does. The scan
   accumulates m; [dot] is where the point is (or -1), [d] where the
   digits start. Any other spelling is left to float_of_string: the
   field is marked slow. *)
let rec float_digits c s slot neg d dot j stop m =
  let q = if j + 4 <= stop then digits4 s j else -1 in
  if q >= 0 then float_digits c s slot neg d dot (j + 4) stop ((m * 10_000) + q)
  else if j < stop && is_digit (String.unsafe_get s j) then
    float_digits c s slot neg d dot (j + 1) stop ((m * 10) + Char.code (String.unsafe_get s j) - 48)
  else if j < stop && String.unsafe_get s j = '.' && dot < 0 && j > d then
    float_digits c s slot neg d j (j + 1) stop m
  else if j < stop && String.unsafe_get s j <> ' ' then begin
    c.st <- st_slow;
    field_end s j stop
  end
  else begin
    let k = if dot < 0 then 0 else j - dot - 1 in
    let n = if dot < 0 then j - d else j - d - 1 in
    if n > 18 || m >= 1 lsl 53 || (dot < 0 && j = d) then c.st <- st_slow
    else begin
      c.st <- st_ok;
      let x = Float.of_int m /. pow10.(k) in
      Float.Array.unsafe_set c.floats slot (if neg then -.x else x)
    end;
    j
  end

let float_value c s i stop slot =
  let neg = i < stop && String.unsafe_get s i = '-' in
  let d = if neg then i + 1 else i in
  float_digits c s slot neg d (-1) d stop 0

(* A time column: converted now, the slow path included. *)
let time_column c s i stop slot msg =
  let e = float_value c s i stop slot in
  if c.st <> st_ok then Float.Array.unsafe_set c.floats slot (float_slow s i e msg);
  e

(* Handles: an even number of hex digits, at most 128, into the
   cursor's handle bytes at [base]; [n] bytes so far. Eight digits a
   step while all eight are hex digits and fit, then two a step up to
   the field's end. *)
let rec handle_octets c s base j stop n =
  if j + 8 > stop || n > 60 then handle_pairs c s base j stop n
  else
    let h0 = hex_at s j and l0 = hex_at s (j + 1) and h1 = hex_at s (j + 2)
    and l1 = hex_at s (j + 3) and h2 = hex_at s (j + 4) and l2 = hex_at s (j + 5)
    and h3 = hex_at s (j + 6) and l3 = hex_at s (j + 7) in
    if h0 lor l0 lor h1 lor l1 lor h2 lor l2 lor h3 lor l3 > 15 then handle_pairs c s base j stop n
    else begin
      let b = c.handles and o = base + n in
      Bytes.unsafe_set b o (Char.unsafe_chr ((h0 lsl 4) lor l0));
      Bytes.unsafe_set b (o + 1) (Char.unsafe_chr ((h1 lsl 4) lor l1));
      Bytes.unsafe_set b (o + 2) (Char.unsafe_chr ((h2 lsl 4) lor l2));
      Bytes.unsafe_set b (o + 3) (Char.unsafe_chr ((h3 lsl 4) lor l3));
      handle_octets c s base (j + 8) stop (n + 4)
    end

and handle_pairs c s base j stop n =
  if j = stop || String.unsafe_get s j = ' ' then begin
    c.st <- st_ok;
    c.v <- n;
    j
  end
  else if j + 1 = stop || n = 64 then bad_field c s j stop
  else
    let hi = hex_at s j and lo = hex_at s (j + 1) in
    if hi lor lo > 15 then bad_field c s j stop
    else begin
      Bytes.unsafe_set c.handles (base + n) (Char.unsafe_chr ((hi lsl 4) lor lo));
      handle_pairs c s base (j + 2) stop (n + 1)
    end

(* Names: bytes with '%XX' escapes. The scan only finds the end and
   whether a '%' occurs, seven bytes at a time; the name is copied out
   (and unescaped) when the record reads it. *)
let rec name_bytes c s j stop lim =
  if j = stop || String.unsafe_get s j = ' ' then j
  else if String.unsafe_get s j = '%' then begin
    c.st <- st_escaped;
    field_end s j stop
  end
  else if j + 1 = lim then name_words c s (j + 1) stop
  else name_bytes c s (j + 1) stop lim

and name_words c s j stop =
  if j + 8 > stop then name_bytes c s j stop stop
  else
    let w = le64 s j land 0xFF_FFFF_FFFF_FFFF in
    let x = w lxor 0x20_2020_2020_2020 and y = w lxor 0x25_2525_2525_2525 in
    if
      (x - 0x01_0101_0101_0101) land lnot x land 0x80_8080_8080_8080 = 0
      && (y - 0x01_0101_0101_0101) land lnot y land 0x80_8080_8080_8080 = 0
    then name_words c s (j + 7) stop
    else name_bytes c s j stop (j + 7)

(* Convert key [k]'s value at [i] into its slots; returns its end. *)
let scan_value c s k i stop =
  let kind = Array.unsafe_get value_kind k in
  let e =
    if kind = v_decimal then begin
      let e = decimal c s i stop in
      Array.unsafe_set c.ints k c.v;
      e
    end
    else if kind = v_handle then begin
      let e = handle_octets c s (64 * k) i stop 0 in
      Array.unsafe_set c.ints k c.v;
      e
    end
    else if kind = v_float then float_value c s i stop k
    else if kind = v_name then begin
      c.st <- st_ok;
      name_words c s i stop
    end
    else begin
      (* excl and eof are true only when spelled "1"; ftype keeps DIR
         and LNK (1 and 2), anything else is a regular file (0). *)
      let e = field_end s i stop in
      c.st <- st_ok;
      c.ints.(k) <-
        (if kind = v_flag then Bool.to_int (slice_is s i (e - i) "1")
         else if slice_is s i (e - i) "DIR" then 1
         else if slice_is s i (e - i) "LNK" then 2
         else 0);
      e
    end
  in
  Array.unsafe_set c.state k c.st;
  Array.unsafe_set c.starts k i;
  Array.unsafe_set c.stops k e;
  c.set <- c.set lor (1 lsl k);
  e

(* --- key=value tokens --- *)

(* The key of the token at [j]: hashed into [c.v] up to its '=' or the
   token's end, which is returned. *)
(* Bytes that end a key: '=' and ' '. *)
let key_stops = String.init 256 (fun i -> if i = Char.code '=' || i = Char.code ' ' then '\001' else '\000')

let rec key_end c s j stop h =
  if j = stop || String.unsafe_get key_stops (Char.code (String.unsafe_get s j)) <> '\000' then begin
    c.v <- h;
    j
  end
  else key_end c s (j + 1) stop (hash_step h (String.unsafe_get s j))

(* Convert each known key of the current half at its first occurrence;
   the first match wins. Tokens without '=' and unknown keys are
   skipped. Returns whether a lone "|" opened the reply half. *)
let rec scan_tokens c s i stop reply =
  if i >= stop then reply
  else
    let j = key_end c s i stop 0 in
    if j = stop || String.unsafe_get s j = ' ' then
      scan_tokens c s (j + 1) stop (reply || (j - i = 1 && String.unsafe_get s i = '|'))
    else
      let k = find_name key_table keys key_words s i (j - i) c.v in
      let e =
        if k < 0 || k >= first_reply_key <> reply || c.set land (1 lsl k) <> 0 then
          field_end s (j + 1) stop
        else scan_value c s k (j + 1) stop
      in
      scan_tokens c s (e + 1) stop reply

(* --- reading the slots --- *)

let has c k = c.set land (1 lsl k) <> 0

(* The state of a key the record requires. *)
let required c k =
  if not (has c k) then malformed missing.(k)
  else
    let st = c.state.(k) in
    if st = st_bad then malformed bad_value.(k) else st

let req_int c s k =
  if required c k = st_slow then int_slow s c.starts.(k) c.stops.(k) bad_value.(k) else c.ints.(k)

let req_i64 c s k =
  if required c k = st_slow then i64_slow s c.starts.(k) c.stops.(k) bad_value.(k)
  else Int64.of_int c.ints.(k)

(* Types.time_of_float, without its floor and round for a whole number
   of seconds, where it gives [{ seconds = x; nanos = 0 }]. *)
let[@inline] time_of x =
  let n = Float.to_int x in
  if Float.of_int n = x && Float.abs x < 9e15 then { Types.seconds = n; nanos = 0 }
  else Types.time_of_float x

let req_time c s k =
  time_of
    (if required c k = st_slow then float_slow s c.starts.(k) c.stops.(k) bad_value.(k)
     else Float.Array.get c.floats k)

let req_fh c k =
  ignore (required c k : int);
  Fh.of_raw (Bytes.sub_string c.handles (64 * k) c.ints.(k))
[@@nt.alloc_ok "the handle's bytes are the decoded value, copied once out of the scan"]

let rec unescape b s i stop msg =
  if i >= stop then Buffer.contents b
  else if s.[i] <> '%' then begin
    Buffer.add_char b s.[i];
    unescape b s (i + 1) stop msg
  end
  else if i + 2 < stop && hex_at s (i + 1) lor hex_at s (i + 2) <= 15 then begin
    Buffer.add_char b (Char.chr ((hex_at s (i + 1) lsl 4) lor hex_at s (i + 2)));
    unescape b s (i + 3) stop msg
  end
  else malformed msg
[@@nt.alloc_ok "decodes a name holding %XX escapes, which the writer emits only for unsafe bytes"]

(* A name is copied out once; every '%' must start a %XX escape. *)
let req_name c s k =
  let i = c.starts.(k) and stop = c.stops.(k) in
  if required c k = st_escaped then unescape (Buffer.create (stop - i)) s i stop bad_value.(k)
  else copy s i stop
[@@nt.alloc_ok "a name or link target is copied out of the line once, as the record's own value"]

let opt_int c s k = if has c k then Some (req_int c s k) else None
let opt_i64 c s k = if has c k then Some (req_i64 c s k) else None
let opt_time c s k = if has c k then Some (req_time c s k) else None
let opt_fh c k = if has c k then Some (req_fh c k) else None
let def_int c s k d = if has c k then req_int c s k else d
let def_i64 c s k d = if has c k then req_i64 c s k else d
let flag c k = has c k && c.ints.(k) = 1

let decode_call c s (p : Proc.t) : Ops.call =
  match p with
  | Null | Root | Writecache -> Null
  | Getattr -> Getattr (req_fh c k_fh)
  | Readlink -> Readlink (req_fh c k_fh)
  | Statfs -> Statfs (req_fh c k_fh)
  | Fsinfo -> Fsinfo (req_fh c k_fh)
  | Pathconf -> Pathconf (req_fh c k_fh)
  | Setattr ->
      let set_size = opt_i64 c s k_ssize and set_mode = opt_int c s k_smode in
      let set_uid = opt_int c s k_suid and set_gid = opt_int c s k_sgid in
      let set_atime = opt_time c s k_satime and set_mtime = opt_time c s k_smtime in
      let attrs = { Types.set_size; set_mode; set_uid; set_gid; set_atime; set_mtime } in
      Setattr { fh = req_fh c k_fh; attrs }
  | Lookup -> Lookup { dir = req_fh c k_dir; name = req_name c s k_name }
  | Access -> Access { fh = req_fh c k_fh; access = req_int c s k_acc }
  | Read ->
      Read { fh = req_fh c k_fh; offset = req_i64 c s k_off; count = req_int c s k_count }
  | Commit ->
      Commit { fh = req_fh c k_fh; offset = req_i64 c s k_off; count = req_int c s k_count }
  | Write ->
      let stable = Types.stable_how_of_int (def_int c s k_stable 2) in
      let offset = req_i64 c s k_off in
      Write { fh = req_fh c k_fh; offset; count = req_int c s k_count; stable }
  | Create ->
      let mode = def_int c s k_mode 0o644 and exclusive = flag c k_excl in
      Create { dir = req_fh c k_dir; name = req_name c s k_name; mode; exclusive }
  | Mkdir ->
      Mkdir { dir = req_fh c k_dir; name = req_name c s k_name; mode = def_int c s k_mode 0o755 }
  | Symlink ->
      let target = req_name c s k_target in
      Symlink { dir = req_fh c k_dir; name = req_name c s k_name; target }
  | Mknod -> Mknod { dir = req_fh c k_dir; name = req_name c s k_name }
  | Remove -> Remove { dir = req_fh c k_dir; name = req_name c s k_name }
  | Rmdir -> Rmdir { dir = req_fh c k_dir; name = req_name c s k_name }
  | Rename ->
      let to_dir = req_fh c k_todir and to_name = req_name c s k_toname in
      Rename { from_dir = req_fh c k_dir; from_name = req_name c s k_name; to_dir; to_name }
  | Link ->
      let to_name = req_name c s k_toname in
      Link { fh = req_fh c k_fh; to_dir = req_fh c k_todir; to_name }
  | Readdir ->
      let cookie = req_i64 c s k_cookie in
      Readdir { dir = req_fh c k_dir; cookie; count = req_int c s k_count }
  | Readdirplus ->
      let cookie = req_i64 c s k_cookie in
      Readdirplus { dir = req_fh c k_dir; cookie; count = req_int c s k_count }

let epoch = Types.time_of_float 0.

(* The text form keeps four attributes; an attr is present iff size is. *)
let attr c s =
  if not (has c k_size) then None
  else
    let ftype : Types.ftype =
      if not (has c k_ftype) then Reg
      else match c.ints.(k_ftype) with 1 -> Dir | 2 -> Lnk | _ -> Reg
    in
    let size = req_i64 c s k_size and fileid = def_i64 c s k_fileid 0L in
    let mtime = if has c k_mtime then req_time c s k_mtime else epoch in
    Some { Types.default_fattr with size; fileid; ftype; mtime }

let decode_success c s (p : Proc.t) : Ops.success =
  match p with
  | Null | Root | Writecache -> R_null
  | Getattr | Setattr -> ( match attr c s with Some a -> R_attr a | None -> R_empty)
  | Lookup -> (
      match opt_fh c k_rfh with
      | Some fh -> R_lookup { fh; obj = attr c s; dir = None }
      | None -> R_empty)
  | Access -> R_access (def_int c s k_racc 0)
  | Readlink -> R_readlink (if has c k_rtarget then req_name c s k_rtarget else "")
  | Read -> R_read { attr = attr c s; count = def_int c s k_rcount 0; eof = flag c k_eof }
  | Write ->
      let committed = Types.stable_how_of_int (def_int c s k_committed 2) in
      R_write { count = def_int c s k_rcount 0; committed; attr = attr c s }
  | Create | Mkdir | Symlink | Mknod -> R_create { fh = opt_fh c k_rfh; attr = attr c s }
  | Remove | Rmdir | Rename | Link | Commit -> R_empty
  | Readdir | Readdirplus -> R_readdir { entries = []; eof = flag c k_eof }
  | Statfs ->
      let total_bytes = def_i64 c s k_tbytes 0L in
      R_statfs { total_bytes; free_bytes = def_i64 c s k_fbytes 0L }
  | Fsinfo ->
      let rtmax = def_int c s k_rtmax 32768 in
      R_fsinfo { rtmax; wtmax = def_int c s k_wtmax 32768 }
  | Pathconf -> R_pathconf { name_max = def_int c s k_namemax 255 }

(* A reply half without a status is a lost reply. *)
let decode_result c s p =
  if not (has c k_status) then None
  else
    let code = req_int c s k_status in
    if code = 0 then Some (Ok (decode_success c s p)) else Some (Error (Types.nfsstat_of_int code))

(* --- the fixed columns --- *)

(* An address: four 1*DIGIT octets up to 255, joined by dots, into c.v. *)
let rec octet c s j stop v msg =
  if j < stop && is_digit (String.unsafe_get s j) then begin
    let v = (v * 10) + Char.code (String.unsafe_get s j) - 48 in
    if v > 255 then malformed msg else octet c s (j + 1) stop v msg
  end
  else begin
    c.v <- (c.v lsl 8) lor v;
    j
  end

let rec address c s i stop n msg =
  let e = octet c s i stop 0 msg in
  if e = i then malformed msg
  else if n = 3 then if e = stop || String.unsafe_get s e = ' ' then e else malformed msg
  else if e < stop && String.unsafe_get s e = '.' then address c s (e + 1) stop (n + 1) msg
  else malformed msg

let ip_column c s i stop msg =
  c.v <- 0;
  address c s i stop 0 msg

(* The xid column: hex digits, at most 63 bits, into c.v. The writer's
   %08x of a negative int is its 63-bit pattern, so values past max_int
   wrap. *)
let rec xid_digits c s j stop acc =
  if j = stop || String.unsafe_get s j = ' ' then begin
    c.v <- acc;
    j
  end
  else
    let d = hex_at s j in
    if d > 15 || acc lsr 59 <> 0 then malformed "bad xid"
    else xid_digits c s (j + 1) stop ((acc lsl 4) lor d)

let xid_column c s i stop =
  if i = stop || String.unsafe_get s i = ' ' then malformed "bad xid" else xid_digits c s i stop 0

let int_column c s i stop msg =
  let e = decimal c s i stop in
  if c.st = st_ok then e
  else if c.st = st_slow then begin
    c.v <- int_slow s i e msg;
    e
  end
  else malformed msg

let rec proc_end c s j stop h =
  if j = stop || String.unsafe_get s j = ' ' then begin
    c.v <- h;
    j
  end
  else proc_end c s (j + 1) stop (hash_step h (String.unsafe_get s j))

let parse_fields c s pos stop =
  let e = time_column c s pos stop slot_time "bad time" in
  let i = next_column e stop in
  let lost = i < stop && String.unsafe_get s i = '-' && (i + 1 = stop || String.unsafe_get s (i + 1) = ' ') in
  let e = if lost then i + 1 else time_column c s i stop slot_reply_time "bad reply time" in
  let i = next_column e stop in
  let version =
    if i + 2 < stop && String.unsafe_get s i = 'v' && String.unsafe_get s (i + 2) = ' ' then
      match String.unsafe_get s (i + 1) with '2' -> 2 | '3' -> 3 | _ -> malformed "bad version"
    else malformed "bad version"
  in
  let e = ip_column c s (i + 3) stop "bad client ip" in
  let client = c.v in
  let e = ip_column c s (next_column e stop) stop "bad server ip" in
  let server = c.v in
  let e = xid_column c s (next_column e stop) stop in
  let xid = c.v in
  let e = int_column c s (next_column e stop) stop "bad uid" in
  let uid = c.v in
  let e = int_column c s (next_column e stop) stop "bad gid" in
  let gid = c.v in
  let i = next_column e stop in
  let e = proc_end c s i stop 0 in
  let p = find_name proc_table proc_names proc_words s i (e - i) c.v in
  if p < 0 then malformed "bad proc";
  let p = procs.(p) in
  c.set <- 0;
  let reply = e < stop && scan_tokens c s (e + 1) stop false in
  let call = decode_call c s p in
  let result = if reply then decode_result c s p else None in
  let time = Float.Array.get c.floats slot_time in
  let reply_time = if lost then None else Some (Float.Array.get c.floats slot_reply_time) in
  { time; reply_time; client; server; version; xid; uid; gid; call; result }

let parse_slice s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then Error "bad slice"
  else
    match parse_fields (Domain.DLS.get cursors) s pos (pos + len) with
    | r -> Ok r
    | exception Malformed msg -> Error msg

let of_line line = parse_slice line ~pos:0 ~len:(String.length line)

(* {2 Line decoder}

   The one line scanner, for the batch readers and the monitor's text
   tail alike: complete lines parse in place in the window, and only
   [finish] judges a line still waiting for its newline. *)

module Window = Nt_net.Window

let rec newline_byte b i stop =
  if i >= stop then -1
  else if Char.equal (Bytes.unsafe_get b i) '\n' then i
  else newline_byte b (i + 1) stop

(* Index of the first newline in [b.[i, stop)], or -1. Seven bytes at a
   time: a word XORed with newlines has a zero byte exactly where a
   newline was, and the zero-byte test never misses one (it may flag a
   byte above a real zero, which the byte scan then sorts out). *)
let rec newline b i stop =
  if i + 8 > stop then newline_byte b i stop
  else
    let x = Int64.to_int (Bytes.get_int64_le b i) land 0xFF_FFFF_FFFF_FFFF lxor 0x0A_0A0A_0A0A_0A0A in
    if (x - 0x01_0101_0101_0101) land lnot x land 0x80_8080_8080_8080 = 0 then newline b (i + 7) stop
    else
      let j = newline_byte b i (i + 7) in
      if j >= 0 then j else newline b (i + 7) stop

module Decoder = struct
  (* Lines that start at or past [hi] are left alone: the next range's. *)
  type t = { w : Window.t; mutable rejected : int; mutable hi : int }

  let create () = { w = Window.create Window.chunk; rejected = 0; hi = max_int }
  let window d = d.w
  let rejected d = d.rejected

  (* Consume the [len]-byte line at [head] and [skip] terminator bytes. *)
  let take_line d c emit len ~skip =
    let w = d.w in
    let pos = w.head in
    Window.drop w (len + skip);
    if len > 0 then
      match parse_fields c (Bytes.unsafe_to_string w.buf) pos (pos + len) with
      | r -> emit r w.pos
      | exception Malformed _ -> d.rejected <- d.rejected + 1

  let rec parse_lines d c emit =
    let w = d.w in
    if w.pos < d.hi then begin
      let i = newline w.buf w.head w.tail in
      if i >= 0 then begin
        take_line d c emit (i - w.head) ~skip:1;
        parse_lines d c emit
      end
    end

  let parse d emit = parse_lines d (Domain.DLS.get cursors) emit

  let finish d emit =
    parse d emit;
    if d.w.pos < d.hi then take_line d (Domain.DLS.get cursors) emit (Window.length d.w) ~skip:0
end

type range = { rejected : int; first : int; stop : int }

(* Pass over the tail of the line in front of the window: true once the
   window starts a line, false at end of file. *)
let rec skip_partial w ic =
  let i = newline w.Window.buf w.head w.tail in
  if i >= 0 then begin
    Window.drop w (i + 1 - w.head);
    true
  end
  else begin
    Window.drop w (Window.length w);
    Window.input w ic > 0 && skip_partial w ic
  end

let iter_range ic ~lo ~hi f =
  let d = Decoder.create () in
  let w = d.w in
  d.hi <- hi;
  let started =
    lo = 0
    || begin
         In_channel.seek ic (Int64.of_int (lo - 1));
         Window.reset_at w (lo - 1);
         skip_partial w ic
       end
  in
  let first = if started then w.pos else -1 in
  let emit r (_ : int) = f r in
  if started then begin
    Decoder.parse d emit;
    while w.pos < hi && Window.input w ic > 0 do
      Decoder.parse d emit
    done
  end;
  let stop = if started && w.pos >= hi then w.pos else -1 in
  Decoder.finish d emit;
  { rejected = d.rejected; first; stop }

let iter_channel ic f = (iter_range ic ~lo:0 ~hi:max_int f).rejected
