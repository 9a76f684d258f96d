module Record = Nt_trace.Record
module Ops = Nt_nfs.Ops
module Types = Nt_nfs.Types
module Fh = Nt_nfs.Fh
module Intern = Nt_util.Intern
module Obs = Nt_obs.Obs
module V = Varint

let magic = Nt_formats.Formats.tbin_magic
let sync = "\xf5NT\xb1"
let max_payload = 16 * 1024 * 1024
let magic_len = String.length magic
let sync_len = String.length sync
let header_len = sync_len + 1 + 4 + 4 + 4
let flag_compressed = 0x01

type stats = {
  frames : int;
  records : int;
  skipped_bytes : int;
  missing_header : int;
  bad_frames : int;
  bad_records : int;
  lost_sync : int;
  truncated_tails : int;
}

let failures s =
  s.missing_header + s.bad_frames + s.bad_records + s.lost_sync + s.truncated_tails

let stats_to_string s =
  Printf.sprintf
    "frames=%d records=%d skipped_bytes=%d missing_header=%d bad_frames=%d \
     bad_records=%d lost_sync=%d truncated_tails=%d"
    s.frames s.records s.skipped_bytes s.missing_header s.bad_frames s.bad_records
    s.lost_sync s.truncated_tails

(* {2 Scalar tags}

   Tags follow constructor declaration order in [Nt_nfs.Ops] /
   [Nt_nfs.Types]; the golden fixture under test/golden locks them. *)

let ftype_tag = function
  | Types.Reg -> 0
  | Types.Dir -> 1
  | Types.Blk -> 2
  | Types.Chr -> 3
  | Types.Lnk -> 4
  | Types.Sock -> 5
  | Types.Fifo -> 6

let ftype_of_tag = function
  | 0 -> Types.Reg
  | 1 -> Types.Dir
  | 2 -> Types.Blk
  | 3 -> Types.Chr
  | 4 -> Types.Lnk
  | 5 -> Types.Sock
  | 6 -> Types.Fifo
  | _ -> raise V.Corrupt

(* Record flags byte. *)
let rf_reply = 0x01
let rf_v3 = 0x02
let rf_result = 0x04
let rf_error = 0x08

(* {2 Encoding} *)

let put_u8 b v = Buffer.add_char b (Char.unsafe_chr (v land 0xFF))
let put_bool b v = put_u8 b (if v then 1 else 0)
let put_atom b intern s = V.write_uv b (Intern.id intern s)
let put_fh b intern fh = put_atom b intern (Fh.to_raw fh)

let put_time b (t : Types.time) =
  V.write_zz b t.seconds;
  V.write_zz b t.nanos

let put_fattr b (a : Types.fattr) =
  V.write_uv b (ftype_tag a.ftype);
  V.write_zz b a.mode;
  V.write_zz b a.nlink;
  V.write_zz b a.uid;
  V.write_zz b a.gid;
  V.write_uv64 b a.size;
  V.write_uv64 b a.used;
  V.write_uv64 b a.fsid;
  V.write_uv64 b a.fileid;
  put_time b a.atime;
  put_time b a.mtime;
  put_time b a.ctime

let put_fattr_opt b = function
  | None -> put_u8 b 0
  | Some a ->
      put_u8 b 1;
      put_fattr b a

let put_fh_opt b intern = function
  | None -> put_u8 b 0
  | Some fh ->
      put_u8 b 1;
      put_fh b intern fh

let put_sattr b (s : Types.sattr) =
  let mask =
    (match s.set_mode with Some _ -> 0x01 | None -> 0)
    lor (match s.set_uid with Some _ -> 0x02 | None -> 0)
    lor (match s.set_gid with Some _ -> 0x04 | None -> 0)
    lor (match s.set_size with Some _ -> 0x08 | None -> 0)
    lor (match s.set_atime with Some _ -> 0x10 | None -> 0)
    lor (match s.set_mtime with Some _ -> 0x20 | None -> 0)
  in
  put_u8 b mask;
  (match s.set_mode with Some v -> V.write_zz b v | None -> ());
  (match s.set_uid with Some v -> V.write_zz b v | None -> ());
  (match s.set_gid with Some v -> V.write_zz b v | None -> ());
  (match s.set_size with Some v -> V.write_uv64 b v | None -> ());
  (match s.set_atime with Some t -> put_time b t | None -> ());
  match s.set_mtime with Some t -> put_time b t | None -> ()

let put_call b intern (c : Ops.call) =
  match c with
  | Ops.Null -> V.write_uv b 0
  | Ops.Getattr fh ->
      V.write_uv b 1;
      put_fh b intern fh
  | Ops.Setattr { fh; attrs } ->
      V.write_uv b 2;
      put_fh b intern fh;
      put_sattr b attrs
  | Ops.Lookup { dir; name } ->
      V.write_uv b 3;
      put_fh b intern dir;
      put_atom b intern name
  | Ops.Access { fh; access } ->
      V.write_uv b 4;
      put_fh b intern fh;
      V.write_zz b access
  | Ops.Readlink fh ->
      V.write_uv b 5;
      put_fh b intern fh
  | Ops.Read { fh; offset; count } ->
      V.write_uv b 6;
      put_fh b intern fh;
      V.write_uv64 b offset;
      V.write_zz b count
  | Ops.Write { fh; offset; count; stable } ->
      V.write_uv b 7;
      put_fh b intern fh;
      V.write_uv64 b offset;
      V.write_zz b count;
      put_u8 b (Types.stable_how_to_int stable)
  | Ops.Create { dir; name; mode; exclusive } ->
      V.write_uv b 8;
      put_fh b intern dir;
      put_atom b intern name;
      V.write_zz b mode;
      put_bool b exclusive
  | Ops.Mkdir { dir; name; mode } ->
      V.write_uv b 9;
      put_fh b intern dir;
      put_atom b intern name;
      V.write_zz b mode
  | Ops.Symlink { dir; name; target } ->
      V.write_uv b 10;
      put_fh b intern dir;
      put_atom b intern name;
      put_atom b intern target
  | Ops.Mknod { dir; name } ->
      V.write_uv b 11;
      put_fh b intern dir;
      put_atom b intern name
  | Ops.Remove { dir; name } ->
      V.write_uv b 12;
      put_fh b intern dir;
      put_atom b intern name
  | Ops.Rmdir { dir; name } ->
      V.write_uv b 13;
      put_fh b intern dir;
      put_atom b intern name
  | Ops.Rename { from_dir; from_name; to_dir; to_name } ->
      V.write_uv b 14;
      put_fh b intern from_dir;
      put_atom b intern from_name;
      put_fh b intern to_dir;
      put_atom b intern to_name
  | Ops.Link { fh; to_dir; to_name } ->
      V.write_uv b 15;
      put_fh b intern fh;
      put_fh b intern to_dir;
      put_atom b intern to_name
  | Ops.Readdir { dir; cookie; count } ->
      V.write_uv b 16;
      put_fh b intern dir;
      V.write_uv64 b cookie;
      V.write_zz b count
  | Ops.Readdirplus { dir; cookie; count } ->
      V.write_uv b 17;
      put_fh b intern dir;
      V.write_uv64 b cookie;
      V.write_zz b count
  | Ops.Statfs fh ->
      V.write_uv b 18;
      put_fh b intern fh
  | Ops.Fsinfo fh ->
      V.write_uv b 19;
      put_fh b intern fh
  | Ops.Pathconf fh ->
      V.write_uv b 20;
      put_fh b intern fh
  | Ops.Commit { fh; offset; count } ->
      V.write_uv b 21;
      put_fh b intern fh;
      V.write_uv64 b offset;
      V.write_zz b count

let put_success b intern (s : Ops.success) =
  match s with
  | Ops.R_null -> V.write_uv b 0
  | Ops.R_attr a ->
      V.write_uv b 1;
      put_fattr b a
  | Ops.R_lookup { fh; obj; dir } ->
      V.write_uv b 2;
      put_fh b intern fh;
      put_fattr_opt b obj;
      put_fattr_opt b dir
  | Ops.R_access v ->
      V.write_uv b 3;
      V.write_zz b v
  | Ops.R_readlink target ->
      V.write_uv b 4;
      put_atom b intern target
  | Ops.R_read { attr; count; eof } ->
      V.write_uv b 5;
      put_fattr_opt b attr;
      V.write_zz b count;
      put_bool b eof
  | Ops.R_write { count; committed; attr } ->
      V.write_uv b 6;
      V.write_zz b count;
      put_u8 b (Types.stable_how_to_int committed);
      put_fattr_opt b attr
  | Ops.R_create { fh; attr } ->
      V.write_uv b 7;
      put_fh_opt b intern fh;
      put_fattr_opt b attr
  | Ops.R_empty -> V.write_uv b 8
  | Ops.R_readdir { entries; eof } ->
      V.write_uv b 9;
      V.write_uv b (List.length entries);
      List.iter
        (fun (e : Ops.dir_entry) ->
          V.write_uv64 b e.entry_fileid;
          put_atom b intern e.entry_name;
          V.write_uv64 b e.entry_cookie)
        entries;
      put_bool b eof
  | Ops.R_statfs { total_bytes; free_bytes } ->
      V.write_uv b 10;
      V.write_uv64 b total_bytes;
      V.write_uv64 b free_bytes
  | Ops.R_fsinfo { rtmax; wtmax } ->
      V.write_uv b 11;
      V.write_zz b rtmax;
      V.write_zz b wtmax
  | Ops.R_pathconf { name_max } ->
      V.write_uv b 12;
      V.write_zz b name_max

let put_record b intern prev_bits (r : Record.t) =
  let flags =
    (match r.reply_time with Some _ -> rf_reply | None -> 0)
    lor (if r.version = 3 then rf_v3 else 0)
    lor
    match r.result with
    | None -> 0
    | Some (Ok _) -> rf_result
    | Some (Error _) -> rf_result lor rf_error
  in
  put_u8 b flags;
  let tbits = Int64.bits_of_float r.time in
  V.write_uv64 b (Int64.logxor tbits !prev_bits);
  prev_bits := tbits;
  (match r.reply_time with
  | Some rt -> V.write_uv64 b (Int64.logxor (Int64.bits_of_float rt) tbits)
  | None -> ());
  V.write_zz b r.client;
  V.write_zz b r.server;
  V.write_zz b r.xid;
  V.write_zz b r.uid;
  V.write_zz b r.gid;
  put_call b intern r.call;
  match r.result with
  | None -> ()
  | Some (Error st) -> V.write_zz b (Types.nfsstat_to_int st)
  | Some (Ok s) -> put_success b intern s

(* {2 Decoding}

   The [decode_*] bindings below are the per-record hot path (alloc-hot
   seeds via the Nt_tbin decode scope): they are kept free of closures,
   string copies and list construction, except where the allocation is
   the decoded value itself (readdir entries), which carries a counted
   [@@nt.alloc_ok]. Field reads are let-bound in wire order — record
   literals must not sequence cursor reads themselves. *)

let get_bool c =
  match V.u8 c with 0 -> false | 1 -> true | _ -> raise V.Corrupt

let get_atom atoms c =
  let i = V.read_uv c in
  if i < 0 || i >= Array.length atoms then raise V.Corrupt;
  Array.unsafe_get atoms i

let get_fh atoms c =
  let s = get_atom atoms c in
  if String.length s > 64 then raise V.Corrupt;
  Fh.of_raw s

let get_stable c =
  match V.u8 c with
  | 0 -> Types.Unstable
  | 1 -> Types.Data_sync
  | 2 -> Types.File_sync
  | _ -> raise V.Corrupt

let decode_time c =
  let seconds = V.read_zz c in
  let nanos = V.read_zz c in
  { Types.seconds; nanos }

let decode_fattr c =
  let ftype = ftype_of_tag (V.read_uv c) in
  let mode = V.read_zz c in
  let nlink = V.read_zz c in
  let uid = V.read_zz c in
  let gid = V.read_zz c in
  let size = V.read_uv64 c in
  let used = V.read_uv64 c in
  let fsid = V.read_uv64 c in
  let fileid = V.read_uv64 c in
  let atime = decode_time c in
  let mtime = decode_time c in
  let ctime = decode_time c in
  { Types.ftype; mode; nlink; uid; gid; size; used; fsid; fileid; atime; mtime; ctime }

let decode_fattr_opt c = if get_bool c then Some (decode_fattr c) else None

let decode_fh_opt atoms c = if get_bool c then Some (get_fh atoms c) else None

let decode_sattr c =
  let mask = V.u8 c in
  if mask land lnot 0x3F <> 0 then raise V.Corrupt;
  let set_mode = if mask land 0x01 <> 0 then Some (V.read_zz c) else None in
  let set_uid = if mask land 0x02 <> 0 then Some (V.read_zz c) else None in
  let set_gid = if mask land 0x04 <> 0 then Some (V.read_zz c) else None in
  let set_size = if mask land 0x08 <> 0 then Some (V.read_uv64 c) else None in
  let set_atime = if mask land 0x10 <> 0 then Some (decode_time c) else None in
  let set_mtime = if mask land 0x20 <> 0 then Some (decode_time c) else None in
  { Types.set_mode; set_uid; set_gid; set_size; set_atime; set_mtime }

let decode_call c atoms =
  match V.read_uv c with
  | 0 -> Ops.Null
  | 1 -> Ops.Getattr (get_fh atoms c)
  | 2 ->
      let fh = get_fh atoms c in
      let attrs = decode_sattr c in
      Ops.Setattr { fh; attrs }
  | 3 ->
      let dir = get_fh atoms c in
      let name = get_atom atoms c in
      Ops.Lookup { dir; name }
  | 4 ->
      let fh = get_fh atoms c in
      let access = V.read_zz c in
      Ops.Access { fh; access }
  | 5 -> Ops.Readlink (get_fh atoms c)
  | 6 ->
      let fh = get_fh atoms c in
      let offset = V.read_uv64 c in
      let count = V.read_zz c in
      Ops.Read { fh; offset; count }
  | 7 ->
      let fh = get_fh atoms c in
      let offset = V.read_uv64 c in
      let count = V.read_zz c in
      let stable = get_stable c in
      Ops.Write { fh; offset; count; stable }
  | 8 ->
      let dir = get_fh atoms c in
      let name = get_atom atoms c in
      let mode = V.read_zz c in
      let exclusive = get_bool c in
      Ops.Create { dir; name; mode; exclusive }
  | 9 ->
      let dir = get_fh atoms c in
      let name = get_atom atoms c in
      let mode = V.read_zz c in
      Ops.Mkdir { dir; name; mode }
  | 10 ->
      let dir = get_fh atoms c in
      let name = get_atom atoms c in
      let target = get_atom atoms c in
      Ops.Symlink { dir; name; target }
  | 11 ->
      let dir = get_fh atoms c in
      let name = get_atom atoms c in
      Ops.Mknod { dir; name }
  | 12 ->
      let dir = get_fh atoms c in
      let name = get_atom atoms c in
      Ops.Remove { dir; name }
  | 13 ->
      let dir = get_fh atoms c in
      let name = get_atom atoms c in
      Ops.Rmdir { dir; name }
  | 14 ->
      let from_dir = get_fh atoms c in
      let from_name = get_atom atoms c in
      let to_dir = get_fh atoms c in
      let to_name = get_atom atoms c in
      Ops.Rename { from_dir; from_name; to_dir; to_name }
  | 15 ->
      let fh = get_fh atoms c in
      let to_dir = get_fh atoms c in
      let to_name = get_atom atoms c in
      Ops.Link { fh; to_dir; to_name }
  | 16 ->
      let dir = get_fh atoms c in
      let cookie = V.read_uv64 c in
      let count = V.read_zz c in
      Ops.Readdir { dir; cookie; count }
  | 17 ->
      let dir = get_fh atoms c in
      let cookie = V.read_uv64 c in
      let count = V.read_zz c in
      Ops.Readdirplus { dir; cookie; count }
  | 18 -> Ops.Statfs (get_fh atoms c)
  | 19 -> Ops.Fsinfo (get_fh atoms c)
  | 20 -> Ops.Pathconf (get_fh atoms c)
  | 21 ->
      let fh = get_fh atoms c in
      let offset = V.read_uv64 c in
      let count = V.read_zz c in
      Ops.Commit { fh; offset; count }
  | _ -> raise V.Corrupt

let decode_entries c atoms =
  let n = V.read_uv c in
  (* every entry costs at least 3 payload bytes, so [n] beyond the
     remaining slice is structurally impossible *)
  if n < 0 || n > c.V.limit - c.V.pos then raise V.Corrupt;
  let entries = ref [] in
  for _ = 1 to n do
    let entry_fileid = V.read_uv64 c in
    let entry_name = get_atom atoms c in
    let entry_cookie = V.read_uv64 c in
    entries := { Ops.entry_fileid; entry_name; entry_cookie } :: !entries
  done;
  List.rev !entries
[@@nt.alloc_ok "the readdir entry list is the decoded value"]

let decode_success c atoms =
  match V.read_uv c with
  | 0 -> Ops.R_null
  | 1 -> Ops.R_attr (decode_fattr c)
  | 2 ->
      let fh = get_fh atoms c in
      let obj = decode_fattr_opt c in
      let dir = decode_fattr_opt c in
      Ops.R_lookup { fh; obj; dir }
  | 3 -> Ops.R_access (V.read_zz c)
  | 4 -> Ops.R_readlink (get_atom atoms c)
  | 5 ->
      let attr = decode_fattr_opt c in
      let count = V.read_zz c in
      let eof = get_bool c in
      Ops.R_read { attr; count; eof }
  | 6 ->
      let count = V.read_zz c in
      let committed = get_stable c in
      let attr = decode_fattr_opt c in
      Ops.R_write { count; committed; attr }
  | 7 ->
      let fh = decode_fh_opt atoms c in
      let attr = decode_fattr_opt c in
      Ops.R_create { fh; attr }
  | 8 -> Ops.R_empty
  | 9 ->
      let entries = decode_entries c atoms in
      let eof = get_bool c in
      Ops.R_readdir { entries; eof }
  | 10 ->
      let total_bytes = V.read_uv64 c in
      let free_bytes = V.read_uv64 c in
      Ops.R_statfs { total_bytes; free_bytes }
  | 11 ->
      let rtmax = V.read_zz c in
      let wtmax = V.read_zz c in
      Ops.R_fsinfo { rtmax; wtmax }
  | 12 -> Ops.R_pathconf { name_max = V.read_zz c }
  | _ -> raise V.Corrupt

let decode_record c atoms prev_bits =
  let flags = V.u8 c in
  if flags land lnot (rf_reply lor rf_v3 lor rf_result lor rf_error) <> 0 then
    raise V.Corrupt;
  let tbits = Int64.logxor (V.read_uv64 c) !prev_bits in
  prev_bits := tbits;
  let time = Int64.float_of_bits tbits in
  let reply_time =
    if flags land rf_reply <> 0 then
      Some (Int64.float_of_bits (Int64.logxor (V.read_uv64 c) tbits))
    else None
  in
  let client = V.read_zz c in
  let server = V.read_zz c in
  let xid = V.read_zz c in
  let uid = V.read_zz c in
  let gid = V.read_zz c in
  let call = decode_call c atoms in
  let result =
    if flags land rf_result = 0 then None
    else if flags land rf_error <> 0 then
      Some (Error (Types.nfsstat_of_int (V.read_zz c)))
    else Some (Ok (decode_success c atoms))
  in
  let version = if flags land rf_v3 <> 0 then 3 else 2 in
  { Record.time; reply_time; client; server; version; xid; uid; gid; call; result }

(* The per-frame dictionary: atom count and lengths are bounded by the
   payload slice itself, so a malformed dictionary fails before
   allocating more than the frame holds. *)
let load_atoms c =
  let n = V.read_uv c in
  (* each atom costs at least its one length byte *)
  if n < 0 || n > c.V.limit - c.V.pos then raise V.Corrupt;
  let atoms = Array.make n "" in
  for i = 0 to n - 1 do
    let len = V.read_uv c in
    if len < 0 || len > c.V.limit - c.V.pos then raise V.Corrupt;
    Array.unsafe_set atoms i (String.sub c.V.s c.V.pos len);
    c.V.pos <- c.V.pos + len
  done;
  atoms
[@@nt.alloc_ok "per-frame atom dictionary materialization, amortized across the frame's records"]

(* {2 Writer} *)

module Writer = struct
  type t = {
    sink : string -> unit;
    frame_records : int;
    mutable intern : Intern.t;
    body : Buffer.t;
    scratch : Buffer.t;
    mutable count : int;
    prev_bits : int64 ref;
    mutable total : int;
  }

  (* a frame also closes early when its record payload hits this *)
  let soft_payload_cap = 1 lsl 20

  let create ?(frame_records = 4096) sink =
    let frame_records = max 1 frame_records in
    sink magic;
    {
      sink;
      frame_records;
      intern = Intern.create 256;
      body = Buffer.create 65536;
      scratch = Buffer.create 65536;
      count = 0;
      prev_bits = ref 0L;
      total = 0;
    }

  let put_le32 b v =
    Buffer.add_char b (Char.unsafe_chr (v land 0xFF));
    Buffer.add_char b (Char.unsafe_chr ((v lsr 8) land 0xFF));
    Buffer.add_char b (Char.unsafe_chr ((v lsr 16) land 0xFF));
    Buffer.add_char b (Char.unsafe_chr ((v lsr 24) land 0xFF))

  let flush t =
    if t.count > 0 then begin
      Buffer.clear t.scratch;
      let natoms = Intern.size t.intern in
      V.write_uv t.scratch natoms;
      for i = 0 to natoms - 1 do
        let s = Intern.to_string t.intern i in
        V.write_uv t.scratch (String.length s);
        Buffer.add_string t.scratch s
      done;
      V.write_uv t.scratch t.count;
      Buffer.add_buffer t.scratch t.body;
      let raw = Buffer.contents t.scratch in
      let sum = Frame.adler32 raw ~pos:0 ~len:(String.length raw) in
      let packed = Frame.compress raw in
      let compressed = String.length packed < String.length raw in
      let stored = if compressed then packed else raw in
      Buffer.clear t.scratch;
      Buffer.add_string t.scratch sync;
      put_u8 t.scratch (if compressed then flag_compressed else 0);
      put_le32 t.scratch (String.length raw);
      put_le32 t.scratch (String.length stored);
      put_le32 t.scratch sum;
      Buffer.add_string t.scratch stored;
      t.sink (Buffer.contents t.scratch);
      Buffer.clear t.body;
      t.intern <- Intern.create 256;
      t.count <- 0;
      t.prev_bits := 0L
    end

  let add t r =
    put_record t.body t.intern t.prev_bits r;
    t.count <- t.count + 1;
    t.total <- t.total + 1;
    if t.count >= t.frame_records || Buffer.length t.body >= soft_payload_cap then
      flush t

  let close = flush
  let written t = t.total
end

let write_channel ?frame_records oc seq =
  let w = Writer.create ?frame_records (output_string oc) in
  Seq.iter (Writer.add w) seq;
  Writer.close w;
  Writer.written w

let encode_string ?frame_records records =
  let buf = Buffer.create 4096 in
  let w = Writer.create ?frame_records (Buffer.add_string buf) in
  List.iter (Writer.add w) records;
  Writer.close w;
  Buffer.contents buf

(* {2 Decoder}

   The decoder owns one {!Nt_net.Window}: unparsed bytes are
   [buf.[head, tail)]. Reads land after [tail] and a parsed frame only
   advances [head]; the window slides and grows as {!Nt_net.Window}
   says. An uncompressed payload decodes in place, through a cursor
   over the window. Records never alias it: every string a record holds
   comes from the atom dictionary, which [load_atoms] copies out.

   Records go to an [emit] callback as they decode, with their replay
   offset: {!iter_channel} and the monitor's tail pass their own;
   {!Decoder.feed} passes one that fills the queue {!Decoder.pull}
   drains. [parse] lives at top level so ntcheck can name it as an
   alloc-hot root. *)

module Window = Nt_net.Window

(* Failure classes and volumes, counted locally (for {!Decoder.stats})
   and mirrored on the registry. *)
let k_frames = 0
let k_records = 1
let k_skipped = 2
let k_missing = 3
let k_bad_frame = 4
let k_bad_record = 5
let k_lost = 6
let k_trunc = 7

(* [first] is the stream offset of the first frame decoded clean: 0
   for a reader that starts the stream, -1 while a range reader that
   starts mid-stream is still looking for its planned start. A clean
   frame that starts at or past [hi] is not decoded: the reader halts
   in front of it and leaves it to the next range. A compressed payload
   decompresses into [raw], grown to the largest raw length seen; the
   next frame may overwrite it, since every string a record holds is
   copied out by [load_atoms]. *)
type decoder = {
  w : Window.t;
  mutable raw : Bytes.t;
  mutable header_ok : bool;
  mutable resyncing : bool;
  mutable finished : bool;
  mutable first : int;
  mutable hi : int;
  mutable halted : bool;
  queue : Record.t Queue.t;
  counts : int array;
  counters : Obs.counter array;
}

let count d k n =
  Array.unsafe_set d.counts k (Array.unsafe_get d.counts k + n);
  Obs.add (Array.unsafe_get d.counters k) n

(* bytes before a range's planned start are the previous range's *)
let skip d n =
  if n > 0 then begin
    if d.first >= 0 then count d k_skipped n;
    Window.drop d.w n
  end

let le32 b off =
  Char.code (Bytes.unsafe_get b off)
  lor (Char.code (Bytes.unsafe_get b (off + 1)) lsl 8)
  lor (Char.code (Bytes.unsafe_get b (off + 2)) lsl 16)
  lor (Char.code (Bytes.unsafe_get b (off + 3)) lsl 24)

let sync_at b i =
  Char.equal (Bytes.unsafe_get b i) '\xf5'
  && Char.equal (Bytes.unsafe_get b (i + 1)) 'N'
  && Char.equal (Bytes.unsafe_get b (i + 2)) 'T'
  && Char.equal (Bytes.unsafe_get b (i + 3)) '\xb1'

let magic_at b i =
  let k = ref 0 in
  while !k < magic_len && Char.equal (Bytes.unsafe_get b (i + !k)) magic.[!k] do
    incr k
  done;
  !k = magic_len

(* index of the first sync marker in [from, tail), or -1 *)
let find_sync (w : Window.t) from =
  let last = w.tail - sync_len in
  let i = ref from and found = ref (-1) in
  while !found < 0 && !i <= last do
    if sync_at w.buf !i then found := !i else incr i
  done;
  !found

(* One counter per corruption event: a failure in a clean stream is
   counted here and opens a resync episode; candidate frames that
   fail while the episode is still open are the same event and skip
   silently. A successful frame decode closes the episode. *)
let frame_damaged d =
  if not d.resyncing then count d k_bad_frame 1;
  d.resyncing <- true;
  skip d 1

(* Decode the checksummed payload [s.[pos, limit)], emitting each
   record with its replay offset. *)
let decode_payload d s ~pos ~limit ~frame_start ~frame_end emit =
  count d k_frames 1;
  try
    let c = { V.s; pos; limit } in
    let atoms = load_atoms c in
    let n = V.read_uv c in
    if n < 0 then raise V.Corrupt;
    let prev_bits = ref 0L in
    for i = 1 to n do
      let r = decode_record c atoms prev_bits in
      count d k_records 1;
      emit r (if i = n then frame_end else frame_start)
    done;
    (* trailing garbage inside a checksummed frame is still damage *)
    if c.V.pos <> c.V.limit then raise V.Corrupt
  with V.Corrupt -> count d k_bad_record 1

let rec parse d emit =
  let w = d.w in
  let len = Window.length w in
  if not d.header_ok then begin
    if len >= magic_len then begin
      if magic_at w.buf w.head then Window.drop w magic_len
      else begin
        count d k_missing 1;
        d.resyncing <- true
      end;
      d.header_ok <- true;
      parse d emit
    end
  end
  else if len >= sync_len && sync_at w.buf w.head then begin
    if len >= header_len then begin
      let flags = Char.code (Bytes.unsafe_get w.buf (w.head + sync_len)) in
      let raw_len = le32 w.buf (w.head + sync_len + 1) in
      let stored_len = le32 w.buf (w.head + sync_len + 5) in
      let sum = le32 w.buf (w.head + sync_len + 9) in
      let compressed = flags land flag_compressed <> 0 in
      let shape_ok =
        flags land lnot flag_compressed = 0
        && raw_len >= 0 && raw_len <= max_payload
        && stored_len >= 0 && stored_len <= max_payload
        && (compressed || stored_len = raw_len)
      in
      if not shape_ok then begin
        frame_damaged d;
        parse d emit
      end
      else if len >= header_len + stored_len then begin
        (* nothing writes the window until [parse] returns, so the
           payload is read in place *)
        let win = Bytes.unsafe_to_string w.buf in
        let at = w.head + header_len in
        match
          if compressed then begin
            if Bytes.length d.raw < raw_len then d.raw <- Bytes.create raw_len;
            Frame.decompress_into win ~pos:at ~len:stored_len d.raw ~expect:raw_len;
            Bytes.unsafe_to_string d.raw
          end
          else win
        with
        | exception V.Corrupt ->
            frame_damaged d;
            parse d emit
        | s ->
            let pos = if compressed then 0 else at in
            if Frame.adler32 s ~pos ~len:raw_len <> sum then begin
              frame_damaged d;
              parse d emit
            end
            else begin
              let frame_start = w.pos in
              if d.first < 0 then d.first <- frame_start;
              if frame_start >= d.hi then d.halted <- true
              else begin
                Window.drop w (header_len + stored_len);
                d.resyncing <- false;
                decode_payload d s ~pos ~limit:(pos + raw_len) ~frame_start ~frame_end:w.pos emit;
                parse d emit
              end
            end
      end
      (* else: wait for the rest of the frame *)
    end
    (* else: wait for a full header *)
  end
  else if len >= sync_len then begin
    (* fewer than sync_len bytes could still be a marker prefix, so a
       desync verdict waits until the judgement is chunk-independent *)
    if not d.resyncing then begin
      count d k_lost 1;
      d.resyncing <- true
    end;
    let at = find_sync w (w.head + 1) in
    if at >= 0 then begin
      skip d (at - w.head);
      parse d emit
    end
    else
      (* no marker: keep a tail that could be a marker prefix *)
      skip d (len - min len (sync_len - 1))
  end

(* The registry mirror of the stats, indexed by the [k_*] classes. *)
let counters obs =
  let fail reason =
    Obs.counter obs
      ~labels:[ ("reason", reason) ]
      ~help:"tbin stream decode failures, by class" "tbin.decode_failure"
  in
  [|
    Obs.counter obs ~help:"tbin frames decoded clean" "tbin.frames";
    Obs.counter obs ~help:"tbin records decoded" "tbin.records";
    Obs.counter obs ~help:"bytes passed over while resynchronising" "tbin.skipped_bytes";
    fail "missing-header";
    fail "bad-frame";
    fail "bad-record";
    fail "lost-sync";
    fail "truncated-tail";
  |]

let to_counts s =
  [|
    s.frames;
    s.records;
    s.skipped_bytes;
    s.missing_header;
    s.bad_frames;
    s.bad_records;
    s.lost_sync;
    s.truncated_tails;
  |]

let of_counts c =
  {
    frames = c.(k_frames);
    records = c.(k_records);
    skipped_bytes = c.(k_skipped);
    missing_header = c.(k_missing);
    bad_frames = c.(k_bad_frame);
    bad_records = c.(k_bad_record);
    lost_sync = c.(k_lost);
    truncated_tails = c.(k_trunc);
  }

let sum a b = of_counts (Array.map2 ( + ) (to_counts a) (to_counts b))
let add_stats obs s = Array.iter2 Obs.add (counters obs) (to_counts s)

module Decoder = struct
  type t = decoder

  let create ?(obs = Obs.null) () =
    {
      w = Window.create 4096;
      raw = Bytes.empty;
      header_ok = false;
      resyncing = false;
      finished = false;
      first = 0;
      hi = max_int;
      halted = false;
      queue = Queue.create ();
      counts = Array.make 8 0;
      counters = counters obs;
    }

  let window t = t.w
  let parse = parse

  let feed t chunk =
    let n = String.length chunk in
    if (not t.finished) && n > 0 then begin
      Window.make_room t.w n;
      Bytes.blit_string chunk 0 t.w.buf t.w.tail n;
      t.w.tail <- t.w.tail + n;
      parse t (fun r _ -> Queue.push r t.queue)
    end

  let pull t = Queue.take_opt t.queue

  let finish t =
    if not t.finished then begin
      t.finished <- true;
      let len = Window.length t.w in
      if len > 0 then begin
        (* the stream ended inside the magic itself; a resync episode
           swallowing the tail was already counted *)
        if not t.header_ok then count t k_missing 1
        else if not t.resyncing then count t k_trunc 1;
        skip t len
      end
    end

  let reset_at t off =
    Window.reset_at t.w (Int64.to_int off);
    Queue.clear t.queue;
    t.header_ok <- Int64.compare off 0L > 0;
    t.resyncing <- false;
    t.finished <- false

  let stats t = of_counts t.counts

  let footprint t =
    let queued = Queue.length t.queue in
    Nt_obs.Footprint.v ~cards:queued ~words:((Bytes.length t.w.buf / 8) + (queued * 32))
end

(* {2 Whole-stream and range readers} *)

type range = { stats : stats; first : int; stop : int }

(* Reads land straight in the window and records go straight to [f],
   with no chunk copy and no queue. The channel read stays here,
   outside the never-raising [Decoder] surface. A range that starts
   mid-stream opens resynchronising, so it passes over the bytes in
   front of its first clean frame as a resync would, but counts none of
   them. The decoder counts into a private registry: range readers run
   on worker domains, and the caller adds the stats where it wants
   them. *)
let iter_range ic ~lo ~hi f =
  let d = Decoder.create ~obs:(Obs.create ~enabled:false ()) () in
  if lo > 0 then begin
    In_channel.seek ic (Int64.of_int lo);
    Decoder.reset_at d (Int64.of_int lo);
    d.resyncing <- true;
    d.first <- -1
  end;
  d.hi <- hi;
  let emit r (_ : int) = f r in
  while (not d.halted) && Window.input d.w ic > 0 do
    parse d emit
  done;
  if not d.halted then Decoder.finish d;
  { stats = Decoder.stats d; first = d.first; stop = (if d.halted then d.w.pos else -1) }

let iter_channel ic f = (iter_range ic ~lo:0 ~hi:max_int f).stats
