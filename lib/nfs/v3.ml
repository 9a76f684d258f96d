module E = Nt_xdr.Encode
module D = Nt_xdr.Decode

exception Unsupported of string

let ftype_code = function
  | Types.Reg -> 1
  | Types.Dir -> 2
  | Types.Blk -> 3
  | Types.Chr -> 4
  | Types.Lnk -> 5
  | Types.Sock -> 6
  | Types.Fifo -> 7

let ftype_of_code = function
  | 1 -> Types.Reg
  | 2 -> Types.Dir
  | 3 -> Types.Blk
  | 4 -> Types.Chr
  | 5 -> Types.Lnk
  | 6 -> Types.Sock
  | 7 -> Types.Fifo
  | n -> raise (D.Error (Printf.sprintf "bad ftype3 %d" n))

let encode_time e (t : Types.time) =
  E.uint32 e t.seconds;
  E.uint32 e t.nanos

let decode_time d : Types.time =
  let seconds = D.uint32 d in
  let nanos = D.uint32 d in
  { seconds; nanos }

let encode_fh e fh = E.opaque e (Fh.to_raw fh)
(* NFS3_FHSIZE caps handles at 64 bytes; an oversized opaque is a
   malformed packet, not a bigger handle. *)
let decode_fh d =
  let s = D.opaque d in
  if String.length s > 64 then raise (D.Error "file handle longer than NFS3_FHSIZE");
  Fh.of_raw s

let encode_fattr e (a : Types.fattr) =
  E.uint32 e (ftype_code a.ftype);
  E.uint32 e a.mode;
  E.uint32 e a.nlink;
  E.uint32 e a.uid;
  E.uint32 e a.gid;
  E.uint64 e a.size;
  E.uint64 e a.used;
  E.uint32 e 0 (* rdev major *);
  E.uint32 e 0 (* rdev minor *);
  E.uint64 e a.fsid;
  E.uint64 e a.fileid;
  encode_time e a.atime;
  encode_time e a.mtime;
  encode_time e a.ctime

let decode_fattr d : Types.fattr =
  let ftype = ftype_of_code (D.uint32 d) in
  let mode = D.uint32 d in
  let nlink = D.uint32 d in
  let uid = D.uint32 d in
  let gid = D.uint32 d in
  let size = D.uint64 d in
  let used = D.uint64 d in
  let _rdev_major = D.uint32 d in
  let _rdev_minor = D.uint32 d in
  let fsid = D.uint64 d in
  let fileid = D.uint64 d in
  let atime = decode_time d in
  let mtime = decode_time d in
  let ctime = decode_time d in
  { ftype; mode; nlink; uid; gid; size; used; fsid; fileid; atime; mtime; ctime }

let encode_post_op_attr e = function
  | None -> E.bool e false
  | Some a ->
      E.bool e true;
      encode_fattr e a

let decode_post_op_attr d = D.optional d decode_fattr

(* We never report pre-op attributes; the tracer ignores them anyway. *)
let encode_wcc_data e post =
  E.bool e false;
  encode_post_op_attr e post

(* Top level so decode_wcc_data (per WRITE/CREATE/REMOVE record)
   allocates no closure per call. *)
let skip_wcc_attr d =
  let _size = D.uint64 d in
  let _mtime = decode_time d in
  let _ctime = decode_time d in
  ()

let decode_wcc_data d =
  let pre = D.optional d skip_wcc_attr in
  ignore pre;
  decode_post_op_attr d

let encode_sattr e (s : Types.sattr) =
  let opt32 v = E.optional e (E.uint32 e) v in
  opt32 s.set_mode;
  opt32 s.set_uid;
  opt32 s.set_gid;
  E.optional e (E.uint64 e) s.set_size;
  (* set_atime / set_mtime: 0 = don't change, 2 = set to client time *)
  (match s.set_atime with
  | None -> E.uint32 e 0
  | Some t ->
      E.uint32 e 2;
      encode_time e t);
  match s.set_mtime with
  | None -> E.uint32 e 0
  | Some t ->
      E.uint32 e 2;
      encode_time e t

(* Top level so decode_sattr (per SETATTR/CREATE record) allocates no
   closure per call. *)
let decode_set_time d =
  match D.uint32 d with
  | 0 -> None
  | 1 -> Some { Types.seconds = 0; nanos = 0 } (* SET_TO_SERVER_TIME *)
  | 2 -> Some (decode_time d)
  | n -> raise (D.Error (Printf.sprintf "bad time_how %d" n))

let decode_sattr d : Types.sattr =
  let set_mode = D.optional d D.uint32 in
  let set_uid = D.optional d D.uint32 in
  let set_gid = D.optional d D.uint32 in
  let set_size = D.optional d D.uint64 in
  let set_atime = decode_set_time d in
  let set_mtime = decode_set_time d in
  { set_mode; set_uid; set_gid; set_size; set_atime; set_mtime }

let encode_diropargs e dir name =
  encode_fh e dir;
  E.string e name

let write_filler = Bytes.make 65536 '\000'

let filler n =
  if n <= Bytes.length write_filler then Bytes.sub_string write_filler 0 n
  else String.make n '\000'

let cookie_verf = String.make 8 '\000'

let encode_call e (c : Ops.call) =
  match c with
  | Null -> ()
  | Getattr fh | Readlink fh | Statfs fh | Fsinfo fh | Pathconf fh -> encode_fh e fh
  | Setattr { fh; attrs } ->
      encode_fh e fh;
      encode_sattr e attrs;
      E.bool e false (* no guard *)
  | Lookup { dir; name } -> encode_diropargs e dir name
  | Access { fh; access } ->
      encode_fh e fh;
      E.uint32 e access
  | Read { fh; offset; count } ->
      encode_fh e fh;
      E.uint64 e offset;
      E.uint32 e count
  | Write { fh; offset; count; stable } ->
      encode_fh e fh;
      E.uint64 e offset;
      E.uint32 e count;
      E.uint32 e (Types.stable_how_to_int stable);
      E.opaque e (filler count)
  | Create { dir; name; mode; exclusive } ->
      encode_diropargs e dir name;
      if exclusive then begin
        E.uint32 e 2;
        E.fixed_opaque e cookie_verf
      end
      else begin
        E.uint32 e 0 (* UNCHECKED *);
        encode_sattr e { Types.empty_sattr with set_mode = Some mode }
      end
  | Mkdir { dir; name; mode } ->
      encode_diropargs e dir name;
      encode_sattr e { Types.empty_sattr with set_mode = Some mode }
  | Symlink { dir; name; target } ->
      encode_diropargs e dir name;
      encode_sattr e Types.empty_sattr;
      E.string e target
  | Mknod { dir; name } ->
      encode_diropargs e dir name;
      E.uint32 e 7 (* NF3FIFO *);
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
      E.uint64 e cookie;
      E.fixed_opaque e cookie_verf;
      E.uint32 e count
  | Readdirplus { dir; cookie; count } ->
      encode_fh e dir;
      E.uint64 e cookie;
      E.fixed_opaque e cookie_verf;
      E.uint32 e count;
      E.uint32 e (count * 8)
  | Commit { fh; offset; count } ->
      encode_fh e fh;
      E.uint64 e offset;
      E.uint32 e count

let decode_call ~proc d : Ops.call =
  match (proc : Proc.t) with
  | Null -> Null
  | Getattr -> Getattr (decode_fh d)
  | Readlink -> Readlink (decode_fh d)
  | Statfs -> Statfs (decode_fh d)
  | Fsinfo -> Fsinfo (decode_fh d)
  | Pathconf -> Pathconf (decode_fh d)
  | Setattr ->
      let fh = decode_fh d in
      let attrs = decode_sattr d in
      let _guard = D.optional d decode_time in
      Setattr { fh; attrs }
  | Lookup ->
      let dir = decode_fh d in
      let name = D.string d in
      Lookup { dir; name }
  | Access ->
      let fh = decode_fh d in
      let access = D.uint32 d in
      Access { fh; access }
  | Read ->
      let fh = decode_fh d in
      let offset = D.uint64 d in
      let count = D.uint32 d in
      Read { fh; offset; count }
  | Write ->
      let fh = decode_fh d in
      let offset = D.uint64 d in
      let count = D.uint32 d in
      let stable = Types.stable_how_of_int (D.uint32 d) in
      ignore (D.skip_opaque d : int);
      Write { fh; offset; count; stable }
  | Create -> (
      let dir = decode_fh d in
      let name = D.string d in
      match D.uint32 d with
      | 0 | 1 ->
          let attrs = decode_sattr d in
          Create { dir; name; mode = Option.value attrs.set_mode ~default:0o644; exclusive = false }
      | 2 ->
          D.skip d 8;
          Create { dir; name; mode = 0o644; exclusive = true }
      | n -> raise (D.Error (Printf.sprintf "bad createmode %d" n)))
  | Mkdir ->
      let dir = decode_fh d in
      let name = D.string d in
      let attrs = decode_sattr d in
      Mkdir { dir; name; mode = Option.value attrs.set_mode ~default:0o755 }
  | Symlink ->
      let dir = decode_fh d in
      let name = D.string d in
      let _attrs = decode_sattr d in
      let target = D.string d in
      Symlink { dir; name; target }
  | Mknod -> (
      let dir = decode_fh d in
      let name = D.string d in
      match D.uint32 d with
      | 6 | 7 ->
          let _attrs = decode_sattr d in
          Mknod { dir; name }
      | 3 | 4 ->
          let _attrs = decode_sattr d in
          let _major = D.uint32 d in
          let _minor = D.uint32 d in
          Mknod { dir; name }
      | _ -> Mknod { dir; name })
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
      let cookie = D.uint64 d in
      D.skip d 8;
      let count = D.uint32 d in
      Readdir { dir; cookie; count }
  | Readdirplus ->
      let dir = decode_fh d in
      let cookie = D.uint64 d in
      D.skip d 8;
      let count = D.uint32 d in
      let _maxcount = D.uint32 d in
      Readdirplus { dir; cookie; count }
  | Commit ->
      let fh = decode_fh d in
      let offset = D.uint64 d in
      let count = D.uint32 d in
      Commit { fh; offset; count }
  | Root | Writecache -> raise (Unsupported "v2-only procedure in v3 stream")

let status_code (r : Ops.result) =
  match r with Ok _ -> 0 | Error st -> Types.nfsstat_to_int st

let encode_result e ~proc (r : Ops.result) =
  E.uint32 e (status_code r);
  let attr_of = function Ok (Ops.R_attr a) -> Some a | _ -> None in
  match (proc : Proc.t) with
  | Null -> ()
  | Getattr -> (
      match r with
      | Ok (R_attr a) -> encode_fattr e a
      | Ok _ -> raise (Unsupported "getattr result shape")
      | Error _ -> ())
  | Setattr -> encode_wcc_data e (attr_of r)
  | Lookup -> (
      match r with
      | Ok (R_lookup { fh; obj; dir }) ->
          encode_fh e fh;
          encode_post_op_attr e obj;
          encode_post_op_attr e dir
      | Ok _ -> raise (Unsupported "lookup result shape")
      | Error _ -> encode_post_op_attr e None)
  | Access -> (
      match r with
      | Ok (R_access bits) ->
          encode_post_op_attr e None;
          E.uint32 e bits
      | Ok _ -> raise (Unsupported "access result shape")
      | Error _ -> encode_post_op_attr e None)
  | Readlink -> (
      match r with
      | Ok (R_readlink target) ->
          encode_post_op_attr e None;
          E.string e target
      | Ok _ -> raise (Unsupported "readlink result shape")
      | Error _ -> encode_post_op_attr e None)
  | Read -> (
      match r with
      | Ok (R_read { attr; count; eof }) ->
          encode_post_op_attr e attr;
          E.uint32 e count;
          E.bool e eof;
          E.opaque e (filler count)
      | Ok _ -> raise (Unsupported "read result shape")
      | Error _ -> encode_post_op_attr e None)
  | Write -> (
      match r with
      | Ok (R_write { count; committed; attr }) ->
          encode_wcc_data e attr;
          E.uint32 e count;
          E.uint32 e (Types.stable_how_to_int committed);
          E.fixed_opaque e cookie_verf
      | Ok _ -> raise (Unsupported "write result shape")
      | Error _ -> encode_wcc_data e None)
  | Create | Mkdir | Symlink | Mknod -> (
      match r with
      | Ok (R_create { fh; attr }) ->
          E.optional e (encode_fh e) fh;
          encode_post_op_attr e attr;
          encode_wcc_data e None
      | Ok _ -> raise (Unsupported "create result shape")
      | Error _ -> encode_wcc_data e None)
  | Remove | Rmdir -> encode_wcc_data e (attr_of r)
  | Rename ->
      encode_wcc_data e None;
      encode_wcc_data e None
  | Link ->
      encode_post_op_attr e None;
      encode_wcc_data e None
  | Readdir -> (
      match r with
      | Ok (R_readdir { entries; eof }) ->
          encode_post_op_attr e None;
          E.fixed_opaque e cookie_verf;
          List.iter
            (fun (entry : Ops.dir_entry) ->
              E.bool e true;
              E.uint64 e entry.entry_fileid;
              E.string e entry.entry_name;
              E.uint64 e entry.entry_cookie)
            entries;
          E.bool e false;
          E.bool e eof
      | Ok _ -> raise (Unsupported "readdir result shape")
      | Error _ -> encode_post_op_attr e None)
  | Readdirplus -> (
      match r with
      | Ok (R_readdir { entries; eof }) ->
          encode_post_op_attr e None;
          E.fixed_opaque e cookie_verf;
          List.iter
            (fun (entry : Ops.dir_entry) ->
              E.bool e true;
              E.uint64 e entry.entry_fileid;
              E.string e entry.entry_name;
              E.uint64 e entry.entry_cookie;
              encode_post_op_attr e None;
              E.bool e false (* no handle *))
            entries;
          E.bool e false;
          E.bool e eof
      | Ok _ -> raise (Unsupported "readdirplus result shape")
      | Error _ -> encode_post_op_attr e None)
  | Statfs -> (
      match r with
      | Ok (R_statfs { total_bytes; free_bytes }) ->
          encode_post_op_attr e None;
          E.uint64 e total_bytes;
          E.uint64 e free_bytes;
          E.uint64 e free_bytes (* abytes *);
          E.uint64 e 1000000L (* tfiles *);
          E.uint64 e 500000L (* ffiles *);
          E.uint64 e 500000L (* afiles *);
          E.uint32 e 0 (* invarsec *)
      | Ok _ -> raise (Unsupported "fsstat result shape")
      | Error _ -> encode_post_op_attr e None)
  | Fsinfo -> (
      match r with
      | Ok (R_fsinfo { rtmax; wtmax }) ->
          encode_post_op_attr e None;
          E.uint32 e rtmax;
          E.uint32 e rtmax;
          E.uint32 e 512;
          E.uint32 e wtmax;
          E.uint32 e wtmax;
          E.uint32 e 512;
          E.uint32 e rtmax (* dtpref *);
          E.uint64 e Int64.max_int;
          encode_time e { seconds = 0; nanos = 1 };
          E.uint32 e 0x1B (* properties *)
      | Ok _ -> raise (Unsupported "fsinfo result shape")
      | Error _ -> encode_post_op_attr e None)
  | Pathconf -> (
      match r with
      | Ok (R_pathconf { name_max }) ->
          encode_post_op_attr e None;
          E.uint32 e 32000 (* linkmax *);
          E.uint32 e name_max;
          E.bool e true;
          E.bool e false;
          E.bool e false;
          E.bool e true
      | Ok _ -> raise (Unsupported "pathconf result shape")
      | Error _ -> encode_post_op_attr e None)
  | Commit -> (
      match r with
      | Ok R_empty ->
          encode_wcc_data e None;
          E.fixed_opaque e cookie_verf
      | Ok _ -> raise (Unsupported "commit result shape")
      | Error _ -> encode_wcc_data e None)
  | Root | Writecache -> raise (Unsupported "v2-only procedure in v3 stream")

let decode_result ~proc d : Ops.result =
  let status = Types.nfsstat_of_int (D.uint32 d) in
  match (status, (proc : Proc.t)) with
  | Ok_, Null -> Ok R_null
  | Ok_, Getattr -> Ok (R_attr (decode_fattr d))
  | Ok_, Setattr -> (
      match decode_wcc_data d with Some a -> Ok (R_attr a) | None -> Ok R_empty)
  | Ok_, Lookup ->
      let fh = decode_fh d in
      let obj = decode_post_op_attr d in
      let dir = decode_post_op_attr d in
      Ok (R_lookup { fh; obj; dir })
  | Ok_, Access ->
      let _attr = decode_post_op_attr d in
      Ok (R_access (D.uint32 d))
  | Ok_, Readlink ->
      let _attr = decode_post_op_attr d in
      Ok (R_readlink (D.string d))
  | Ok_, Read ->
      let attr = decode_post_op_attr d in
      let count = D.uint32 d in
      let eof = D.bool d in
      ignore (D.skip_opaque d : int);
      Ok (R_read { attr; count; eof })
  | Ok_, Write ->
      let attr = decode_wcc_data d in
      let count = D.uint32 d in
      let committed = Types.stable_how_of_int (D.uint32 d) in
      D.skip d 8;
      Ok (R_write { count; committed; attr })
  | Ok_, (Create | Mkdir | Symlink | Mknod) ->
      let fh = D.optional d decode_fh in
      let attr = decode_post_op_attr d in
      let _wcc = decode_wcc_data d in
      Ok (R_create { fh; attr })
  | Ok_, (Remove | Rmdir) -> (
      match decode_wcc_data d with Some a -> Ok (R_attr a) | None -> Ok R_empty)
  | Ok_, Rename ->
      let _from = decode_wcc_data d in
      let _to = decode_wcc_data d in
      Ok R_empty
  | Ok_, Link ->
      let _attr = decode_post_op_attr d in
      let _wcc = decode_wcc_data d in
      Ok R_empty
  | Ok_, Readdir ->
      let _attr = decode_post_op_attr d in
      D.skip d 8;
      let rec entries acc =
        if D.bool d then begin
          let entry_fileid = D.uint64 d in
          let entry_name = D.string d in
          let entry_cookie = D.uint64 d in
          entries ({ Ops.entry_fileid; entry_name; entry_cookie } :: acc)
        end
        else List.rev acc
      in
      let es = entries [] in
      let eof = D.bool d in
      Ok (R_readdir { entries = es; eof })
  | Ok_, Readdirplus ->
      let _attr = decode_post_op_attr d in
      D.skip d 8;
      let rec entries acc =
        if D.bool d then begin
          let entry_fileid = D.uint64 d in
          let entry_name = D.string d in
          let entry_cookie = D.uint64 d in
          let _name_attr = decode_post_op_attr d in
          let _name_fh = D.optional d decode_fh in
          entries ({ Ops.entry_fileid; entry_name; entry_cookie } :: acc)
        end
        else List.rev acc
      in
      let es = entries [] in
      let eof = D.bool d in
      Ok (R_readdir { entries = es; eof })
  | Ok_, Statfs ->
      let _attr = decode_post_op_attr d in
      let total_bytes = D.uint64 d in
      let free_bytes = D.uint64 d in
      let _abytes = D.uint64 d in
      let _tfiles = D.uint64 d in
      let _ffiles = D.uint64 d in
      let _afiles = D.uint64 d in
      let _invarsec = D.uint32 d in
      Ok (R_statfs { total_bytes; free_bytes })
  | Ok_, Fsinfo ->
      let _attr = decode_post_op_attr d in
      let rtmax = D.uint32 d in
      let _rtpref = D.uint32 d in
      let _rtmult = D.uint32 d in
      let wtmax = D.uint32 d in
      Ok (R_fsinfo { rtmax; wtmax })
  | Ok_, Pathconf ->
      let _attr = decode_post_op_attr d in
      let _linkmax = D.uint32 d in
      let name_max = D.uint32 d in
      Ok (R_pathconf { name_max })
  | Ok_, Commit ->
      let _wcc = decode_wcc_data d in
      Ok R_empty
  | Ok_, (Root | Writecache) -> raise (Unsupported "v2-only procedure in v3 stream")
  | err, _ -> Error err
[@@nt.alloc_ok "the readdir entry list (cons + rev + local walker) is the decoded value"]
