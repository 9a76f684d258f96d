module E = Nt_xdr.Encode
module D = Nt_xdr.Decode

exception Unsupported of string

let unsupported proc = raise (Unsupported (Proc.to_string proc ^ " has no NFSv2 form"))

let ftype_code = function
  | Types.Reg -> 1
  | Types.Dir -> 2
  | Types.Blk -> 3
  | Types.Chr -> 4
  | Types.Lnk -> 5
  | Types.Sock -> 6
  | Types.Fifo -> 8 (* NFFIFO in v2 *)

let ftype_of_code = function
  | 0 -> Types.Reg (* NFNON: treat as regular for tracing purposes *)
  | 1 -> Types.Reg
  | 2 -> Types.Dir
  | 3 -> Types.Blk
  | 4 -> Types.Chr
  | 5 -> Types.Lnk
  | 6 -> Types.Sock
  | 8 -> Types.Fifo
  | n -> raise (D.Error (Printf.sprintf "bad v2 ftype %d" n))

let encode_timeval e (t : Types.time) =
  E.uint32 e t.seconds;
  E.uint32 e (t.nanos / 1000)

let decode_timeval d : Types.time =
  let seconds = D.uint32 d in
  let micros = D.uint32 d in
  { seconds; nanos = micros * 1000 }

let encode_fh e fh = E.fixed_opaque e (Fh.to_v2_raw fh)
let decode_fh d = Fh.of_raw (D.fixed_opaque d Fh.v2_size)

let clamp32 (v : int64) =
  if Int64.compare v 0xFFFFFFFFL > 0 then 0xFFFFFFFF else Int64.to_int v

let encode_fattr e (a : Types.fattr) =
  E.uint32 e (ftype_code a.ftype);
  E.uint32 e a.mode;
  E.uint32 e a.nlink;
  E.uint32 e a.uid;
  E.uint32 e a.gid;
  E.uint32 e (clamp32 a.size);
  E.uint32 e 8192 (* blocksize *);
  E.uint32 e 0 (* rdev *);
  E.uint32 e (clamp32 (Int64.div (Int64.add a.used 511L) 512L)) (* blocks *);
  E.uint32 e (Int64.to_int (Int64.logand a.fsid 0xFFFFFFFFL));
  E.uint32 e (clamp32 a.fileid);
  encode_timeval e a.atime;
  encode_timeval e a.mtime;
  encode_timeval e a.ctime

let decode_fattr d : Types.fattr =
  let ftype = ftype_of_code (D.uint32 d) in
  let mode = D.uint32 d in
  let nlink = D.uint32 d in
  let uid = D.uint32 d in
  let gid = D.uint32 d in
  let size = Int64.of_int (D.uint32 d) in
  let _blocksize = D.uint32 d in
  let _rdev = D.uint32 d in
  let blocks = D.uint32 d in
  let fsid = Int64.of_int (D.uint32 d) in
  let fileid = Int64.of_int (D.uint32 d) in
  let atime = decode_timeval d in
  let mtime = decode_timeval d in
  let ctime = decode_timeval d in
  {
    ftype; mode; nlink; uid; gid; size;
    used = Int64.of_int (blocks * 512);
    fsid; fileid; atime; mtime; ctime;
  }

(* v2 sattr: each field is "-1 means don't set". *)
let neg1 = 0xFFFFFFFF

let encode_sattr e (s : Types.sattr) =
  let f32 = function Some v -> v | None -> neg1 in
  E.uint32 e (f32 s.set_mode);
  E.uint32 e (f32 s.set_uid);
  E.uint32 e (f32 s.set_gid);
  E.uint32 e (match s.set_size with Some v -> clamp32 v | None -> neg1);
  (match s.set_atime with
  | Some t -> encode_timeval e t
  | None ->
      E.uint32 e neg1;
      E.uint32 e neg1);
  match s.set_mtime with
  | Some t -> encode_timeval e t
  | None ->
      E.uint32 e neg1;
      E.uint32 e neg1

(* Helpers at top level: decode_sattr runs per SETATTR/CREATE record,
   so its body must not rebuild these closures each call. *)
let sattr_opt v = if v = neg1 then None else Some v

let decode_sattr_time d =
  let seconds = D.uint32 d in
  let micros = D.uint32 d in
  if seconds = neg1 then None else Some { Types.seconds; nanos = micros * 1000 }

let decode_sattr d : Types.sattr =
  let set_mode = sattr_opt (D.uint32 d) in
  let set_uid = sattr_opt (D.uint32 d) in
  let set_gid = sattr_opt (D.uint32 d) in
  let set_size =
    match sattr_opt (D.uint32 d) with Some v -> Some (Int64.of_int v) | None -> None
  in
  let set_atime = decode_sattr_time d in
  let set_mtime = decode_sattr_time d in
  { set_mode; set_uid; set_gid; set_size; set_atime; set_mtime }

let encode_diropargs e dir name =
  encode_fh e dir;
  E.string e name

let filler n = String.make n '\000'

let encode_call e (c : Ops.call) =
  match c with
  | Null -> ()
  | Getattr fh | Readlink fh | Statfs fh -> encode_fh e fh
  | Setattr { fh; attrs } ->
      encode_fh e fh;
      encode_sattr e attrs
  | Lookup { dir; name } -> encode_diropargs e dir name
  | Read { fh; offset; count } ->
      encode_fh e fh;
      E.uint32 e (clamp32 offset);
      E.uint32 e count;
      E.uint32 e count (* totalcount, unused *)
  | Write { fh; offset; count; stable = _ } ->
      encode_fh e fh;
      E.uint32 e 0 (* beginoffset, unused *);
      E.uint32 e (clamp32 offset);
      E.uint32 e count (* totalcount, unused *);
      E.opaque e (filler count)
  | Create { dir; name; mode; exclusive = _ } ->
      encode_diropargs e dir name;
      encode_sattr e { Types.empty_sattr with set_mode = Some mode }
  | Mkdir { dir; name; mode } ->
      encode_diropargs e dir name;
      encode_sattr e { Types.empty_sattr with set_mode = Some mode }
  | Symlink { dir; name; target } ->
      encode_diropargs e dir name;
      E.string e target;
      encode_sattr e Types.empty_sattr
  | Remove { dir; name } | Rmdir { dir; name } -> encode_diropargs e dir name
  | Rename { from_dir; from_name; to_dir; to_name } ->
      encode_diropargs e from_dir from_name;
      encode_diropargs e to_dir to_name
  | Link { fh; to_dir; to_name } ->
      encode_fh e fh;
      encode_diropargs e to_dir to_name
  | Readdir { dir; cookie; count } ->
      encode_fh e dir;
      E.uint32 e (clamp32 cookie) (* nfscookie, 4 bytes in v2 *);
      E.uint32 e count
  | Access _ | Mknod _ | Readdirplus _ | Fsinfo _ | Pathconf _ | Commit _ ->
      unsupported (Ops.proc_of_call c)

let decode_call ~proc d : Ops.call =
  match (proc : Proc.t) with
  | Null -> Null
  | Root ->
      (* Obsolete; takes no arguments, never used by real clients. *)
      Null
  | Writecache -> Null
  | Getattr -> Getattr (decode_fh d)
  | Readlink -> Readlink (decode_fh d)
  | Statfs -> Statfs (decode_fh d)
  | Setattr ->
      let fh = decode_fh d in
      let attrs = decode_sattr d in
      Setattr { fh; attrs }
  | Lookup ->
      let dir = decode_fh d in
      let name = D.string d in
      Lookup { dir; name }
  | Read ->
      let fh = decode_fh d in
      let offset = Int64.of_int (D.uint32 d) in
      let count = D.uint32 d in
      let _totalcount = D.uint32 d in
      Read { fh; offset; count }
  | Write ->
      let fh = decode_fh d in
      let _beginoffset = D.uint32 d in
      let offset = Int64.of_int (D.uint32 d) in
      let _totalcount = D.uint32 d in
      let count = D.skip_opaque d in
      Write { fh; offset; count; stable = Types.File_sync }
  | Create ->
      let dir = decode_fh d in
      let name = D.string d in
      let attrs = decode_sattr d in
      Create { dir; name; mode = Option.value attrs.set_mode ~default:0o644; exclusive = false }
  | Mkdir ->
      let dir = decode_fh d in
      let name = D.string d in
      let attrs = decode_sattr d in
      Mkdir { dir; name; mode = Option.value attrs.set_mode ~default:0o755 }
  | Symlink ->
      let dir = decode_fh d in
      let name = D.string d in
      let target = D.string d in
      let _attrs = decode_sattr d in
      Symlink { dir; name; target }
  | Remove ->
      let dir = decode_fh d in
      let name = D.string d in
      Remove { dir; name }
  | Rmdir ->
      let dir = decode_fh d in
      let name = D.string d in
      Rmdir { dir; name }
  | Rename ->
      let from_dir = decode_fh d in
      let from_name = D.string d in
      let to_dir = decode_fh d in
      let to_name = D.string d in
      Rename { from_dir; from_name; to_dir; to_name }
  | Link ->
      let fh = decode_fh d in
      let to_dir = decode_fh d in
      let to_name = D.string d in
      Link { fh; to_dir; to_name }
  | Readdir ->
      let dir = decode_fh d in
      let cookie = Int64.of_int (D.uint32 d) in
      let count = D.uint32 d in
      Readdir { dir; cookie; count }
  | Access | Mknod | Readdirplus | Fsinfo | Pathconf | Commit -> unsupported proc

(* v2 maps our rich nfsstat onto its smaller code space; codes above the
   v2 range degrade to EIO, which is what old servers did. *)
let v2_status (st : Types.nfsstat) =
  match st with
  | Err_badhandle | Err_notsupp | Err_serverfault | Err_jukebox -> 5
  | other -> Types.nfsstat_to_int other

let encode_result e ~proc (r : Ops.result) =
  let status e = match r with Ok _ -> E.uint32 e 0 | Error st -> E.uint32 e (v2_status st) in
  match (proc : Proc.t) with
  | Null -> ()
  | Root | Writecache -> ()
  | Getattr | Setattr -> (
      status e;
      match r with
      | Ok (R_attr a) -> encode_fattr e a
      | Ok _ -> raise (Unsupported "attrstat result shape")
      | Error _ -> ())
  | Lookup -> (
      status e;
      match r with
      | Ok (R_lookup { fh; obj; _ }) ->
          encode_fh e fh;
          encode_fattr e (Option.value obj ~default:Types.default_fattr)
      | Ok _ -> raise (Unsupported "diropres result shape")
      | Error _ -> ())
  | Readlink -> (
      status e;
      match r with
      | Ok (R_readlink target) -> E.string e target
      | Ok _ -> raise (Unsupported "readlink result shape")
      | Error _ -> ())
  | Read -> (
      status e;
      match r with
      | Ok (R_read { attr; count; eof = _ }) ->
          encode_fattr e (Option.value attr ~default:Types.default_fattr);
          E.opaque e (filler count)
      | Ok _ -> raise (Unsupported "read result shape")
      | Error _ -> ())
  | Write -> (
      status e;
      match r with
      | Ok (R_write { attr; _ }) -> encode_fattr e (Option.value attr ~default:Types.default_fattr)
      | Ok _ -> raise (Unsupported "write result shape")
      | Error _ -> ())
  | Create | Mkdir | Symlink -> (
      status e;
      match r with
      | Ok (R_create { fh; attr }) ->
          (* v2 SYMLINK replies carry only status, but encoding the
             diropres for CREATE/MKDIR; SYMLINK handled below. *)
          if proc <> Symlink then begin
            encode_fh e (Option.value fh ~default:(Fh.make ~fsid:0 ~fileid:0));
            encode_fattr e (Option.value attr ~default:Types.default_fattr)
          end
      | Ok _ -> raise (Unsupported "create result shape")
      | Error _ -> ())
  | Remove | Rmdir | Rename | Link -> status e
  | Readdir -> (
      status e;
      match r with
      | Ok (R_readdir { entries; eof }) ->
          List.iter
            (fun (entry : Ops.dir_entry) ->
              E.bool e true;
              E.uint32 e (clamp32 entry.entry_fileid);
              E.string e entry.entry_name;
              E.uint32 e (clamp32 entry.entry_cookie))
            entries;
          E.bool e false;
          E.bool e eof
      | Ok _ -> raise (Unsupported "readdir result shape")
      | Error _ -> ())
  | Statfs -> (
      status e;
      match r with
      | Ok (R_statfs { total_bytes; free_bytes }) ->
          E.uint32 e 8192 (* tsize *);
          E.uint32 e 4096 (* bsize *);
          E.uint32 e (clamp32 (Int64.div total_bytes 4096L));
          E.uint32 e (clamp32 (Int64.div free_bytes 4096L));
          E.uint32 e (clamp32 (Int64.div free_bytes 4096L))
      | Ok _ -> raise (Unsupported "statfs result shape")
      | Error _ -> ())
  | Access | Mknod | Readdirplus | Fsinfo | Pathconf | Commit -> unsupported proc

let decode_status d = Types.nfsstat_of_int (D.uint32 d)

let decode_result ~proc d : Ops.result =
  let status = decode_status in
  match (proc : Proc.t) with
  | Null -> Ok R_null
  | Root | Writecache -> Ok R_null
  | Getattr | Setattr -> (
      match status d with Ok_ -> Ok (R_attr (decode_fattr d)) | err -> Error err)
  | Lookup -> (
      match status d with
      | Ok_ ->
          let fh = decode_fh d in
          let attr = decode_fattr d in
          Ok (R_lookup { fh; obj = Some attr; dir = None })
      | err -> Error err)
  | Readlink -> (
      match status d with Ok_ -> Ok (R_readlink (D.string d)) | err -> Error err)
  | Read -> (
      match status d with
      | Ok_ ->
          let attr = decode_fattr d in
          let count = D.skip_opaque d in
          Ok (R_read { attr = Some attr; count; eof = false })
      | err -> Error err)
  | Write -> (
      match status d with
      | Ok_ ->
          let attr = decode_fattr d in
          (* v2 writes are always synchronous full writes. *)
          Ok (R_write { count = 0; committed = Types.File_sync; attr = Some attr })
      | err -> Error err)
  | Create | Mkdir -> (
      match status d with
      | Ok_ ->
          let fh = decode_fh d in
          let attr = decode_fattr d in
          Ok (R_create { fh = Some fh; attr = Some attr })
      | err -> Error err)
  | Symlink -> (
      match status d with Ok_ -> Ok (R_create { fh = None; attr = None }) | err -> Error err)
  | Remove | Rmdir | Rename | Link -> (
      match status d with Ok_ -> Ok R_empty | err -> Error err)
  | Readdir -> (
      match status d with
      | Ok_ ->
          let rec entries acc =
            if D.bool d then begin
              let entry_fileid = Int64.of_int (D.uint32 d) in
              let entry_name = D.string d in
              let entry_cookie = Int64.of_int (D.uint32 d) in
              entries ({ Ops.entry_fileid; entry_name; entry_cookie } :: acc)
            end
            else List.rev acc
          in
          let es = entries [] in
          let eof = D.bool d in
          Ok (R_readdir { entries = es; eof })
      | err -> Error err)
  | Statfs -> (
      match status d with
      | Ok_ ->
          let _tsize = D.uint32 d in
          let bsize = D.uint32 d in
          let blocks = D.uint32 d in
          let bfree = D.uint32 d in
          let _bavail = D.uint32 d in
          Ok
            (R_statfs
               {
                 total_bytes = Int64.of_int (blocks * bsize);
                 free_bytes = Int64.of_int (bfree * bsize);
               })
      | err -> Error err)
  | Access | Mknod | Readdirplus | Fsinfo | Pathconf | Commit -> unsupported proc
[@@nt.alloc_ok "the readdir entry list (cons + rev + local walker) is the decoded value"]
