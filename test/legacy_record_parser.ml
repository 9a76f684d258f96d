(* The token-list text parser that Record.parse_slice replaced, kept
   verbatim as a differential oracle for test_trace: wherever the new
   parser accepts a line, this one must accept it too and build the same
   record. Ip_addr.of_string and Fh.of_hex are copied as they were,
   since the new ones are adapters over the stricter slice parsers. *)

module Ops = Nt_nfs.Ops
module Proc = Nt_nfs.Proc
module Types = Nt_nfs.Types
module Fh = Nt_nfs.Fh
module Record = Nt_trace.Record

let ip_of_string s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] -> (
      match (int_of_string_opt a, int_of_string_opt b, int_of_string_opt c, int_of_string_opt d) with
      | Some a, Some b, Some c, Some d
        when a >= 0 && a < 256 && b >= 0 && b < 256 && c >= 0 && c < 256 && d >= 0 && d < 256 ->
          Some (Nt_net.Ip_addr.v a b c d)
      | _ -> None)
  | _ -> None

let fh_of_hex s =
  let n = String.length s in
  if n mod 2 <> 0 || n > 128 then None
  else
    let hex c =
      match c with
      | '0' .. '9' -> Some (Char.code c - Char.code '0')
      | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
      | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
      | _ -> None
    in
    let b = Bytes.create (n / 2) in
    let ok = ref true in
    for i = 0 to (n / 2) - 1 do
      match (hex s.[2 * i], hex s.[(2 * i) + 1]) with
      | Some hi, Some lo -> Bytes.set b i (Char.chr ((hi lsl 4) lor lo))
      | _ -> ok := false
    done;
    if !ok then Some (Fh.of_raw (Bytes.unsafe_to_string b)) else None

let unescape s =
  if not (String.contains s '%') then s
  else begin
    let buf = Buffer.create (String.length s) in
    let n = String.length s in
    let i = ref 0 in
    while !i < n do
      if s.[!i] = '%' && !i + 2 < n then begin
        (match int_of_string_opt ("0x" ^ String.sub s (!i + 1) 2) with
        | Some code -> Buffer.add_char buf (Char.chr code)
        | None -> Buffer.add_char buf s.[!i]);
        i := !i + 3
      end
      else begin
        Buffer.add_char buf s.[!i];
        i := !i + 1
      end
    done;
    Buffer.contents buf
  end

let proc_of_string s = List.find_opt (fun p -> Proc.to_string p = s) Proc.all

let parse_kvs tokens =
  List.filter_map
    (fun tok ->
      match String.index_opt tok '=' with
      | Some i -> Some (String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1))
      | None -> None)
    tokens

let of_line line =
  let ( let* ) = Result.bind in
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  match String.split_on_char ' ' line with
  | time :: reply_time :: version :: client :: server :: xid :: uid :: gid :: procname :: rest ->
      let* time = match float_of_string_opt time with Some f -> Ok f | None -> fail "bad time" in
      let* reply_time =
        if reply_time = "-" then Ok None
        else
          match float_of_string_opt reply_time with
          | Some f -> Ok (Some f)
          | None -> fail "bad reply time"
      in
      let* version =
        match version with "v2" -> Ok 2 | "v3" -> Ok 3 | v -> fail "bad version %s" v
      in
      let* client =
        match ip_of_string client with Some ip -> Ok ip | None -> fail "bad client ip"
      in
      let* server =
        match ip_of_string server with Some ip -> Ok ip | None -> fail "bad server ip"
      in
      let* xid =
        match int_of_string_opt ("0x" ^ xid) with Some x -> Ok x | None -> fail "bad xid"
      in
      let* uid = match int_of_string_opt uid with Some u -> Ok u | None -> fail "bad uid" in
      let* gid = match int_of_string_opt gid with Some g -> Ok g | None -> fail "bad gid" in
      let* p = match proc_of_string procname with Some p -> Ok p | None -> fail "bad proc" in
      let call_toks, result_toks =
        let rec split acc = function
          | [] -> (List.rev acc, None)
          | "|" :: rest -> (List.rev acc, Some rest)
          | tok :: rest -> split (tok :: acc) rest
        in
        split [] rest
      in
      let ckv = parse_kvs call_toks in
      let get key = List.assoc_opt key ckv in
      let get_fh key =
        match get key with Some hex -> fh_of_hex hex | None -> None
      in
      let get_int key = Option.bind (get key) int_of_string_opt in
      let get_i64 key = Option.bind (get key) Int64.of_string_opt in
      let get_name key = Option.map unescape (get key) in
      let req_fh key = match get_fh key with Some fh -> Ok fh | None -> fail "missing %s" key in
      let req_name key =
        match get_name key with Some n -> Ok n | None -> fail "missing %s" key
      in
      let req_i64 key = match get_i64 key with Some v -> Ok v | None -> fail "missing %s" key in
      let req_int key = match get_int key with Some v -> Ok v | None -> fail "missing %s" key in
      let* call =
        match (p : Proc.t) with
        | Null | Root | Writecache -> Ok Ops.Null
        | Getattr ->
            let* fh = req_fh "fh" in
            Ok (Ops.Getattr fh)
        | Readlink ->
            let* fh = req_fh "fh" in
            Ok (Ops.Readlink fh)
        | Statfs ->
            let* fh = req_fh "fh" in
            Ok (Ops.Statfs fh)
        | Fsinfo ->
            let* fh = req_fh "fh" in
            Ok (Ops.Fsinfo fh)
        | Pathconf ->
            let* fh = req_fh "fh" in
            Ok (Ops.Pathconf fh)
        | Setattr ->
            let* fh = req_fh "fh" in
            let time_of key =
              Option.map (fun f -> Types.time_of_float f)
                (Option.bind (get key) float_of_string_opt)
            in
            Ok
              (Ops.Setattr
                 {
                   fh;
                   attrs =
                     {
                       set_size = get_i64 "ssize";
                       set_mode = get_int "smode";
                       set_uid = get_int "suid";
                       set_gid = get_int "sgid";
                       set_atime = time_of "satime";
                       set_mtime = time_of "smtime";
                     };
                 })
        | Lookup ->
            let* dir = req_fh "dir" in
            let* name = req_name "name" in
            Ok (Ops.Lookup { dir; name })
        | Access ->
            let* fh = req_fh "fh" in
            let* access = req_int "acc" in
            Ok (Ops.Access { fh; access })
        | Read ->
            let* fh = req_fh "fh" in
            let* offset = req_i64 "off" in
            let* count = req_int "count" in
            Ok (Ops.Read { fh; offset; count })
        | Write ->
            let* fh = req_fh "fh" in
            let* offset = req_i64 "off" in
            let* count = req_int "count" in
            let stable = Types.stable_how_of_int (Option.value (get_int "stable") ~default:2) in
            Ok (Ops.Write { fh; offset; count; stable })
        | Create ->
            let* dir = req_fh "dir" in
            let* name = req_name "name" in
            let mode = Option.value (get_int "mode") ~default:0o644 in
            let exclusive = get "excl" = Some "1" in
            Ok (Ops.Create { dir; name; mode; exclusive })
        | Mkdir ->
            let* dir = req_fh "dir" in
            let* name = req_name "name" in
            let mode = Option.value (get_int "mode") ~default:0o755 in
            Ok (Ops.Mkdir { dir; name; mode })
        | Symlink ->
            let* dir = req_fh "dir" in
            let* name = req_name "name" in
            let* target = req_name "target" in
            Ok (Ops.Symlink { dir; name; target })
        | Mknod ->
            let* dir = req_fh "dir" in
            let* name = req_name "name" in
            Ok (Ops.Mknod { dir; name })
        | Remove ->
            let* dir = req_fh "dir" in
            let* name = req_name "name" in
            Ok (Ops.Remove { dir; name })
        | Rmdir ->
            let* dir = req_fh "dir" in
            let* name = req_name "name" in
            Ok (Ops.Rmdir { dir; name })
        | Rename ->
            let* from_dir = req_fh "dir" in
            let* from_name = req_name "name" in
            let* to_dir = req_fh "todir" in
            let* to_name = req_name "toname" in
            Ok (Ops.Rename { from_dir; from_name; to_dir; to_name })
        | Link ->
            let* fh = req_fh "fh" in
            let* to_dir = req_fh "todir" in
            let* to_name = req_name "toname" in
            Ok (Ops.Link { fh; to_dir; to_name })
        | Readdir ->
            let* dir = req_fh "dir" in
            let* cookie = req_i64 "cookie" in
            let* count = req_int "count" in
            Ok (Ops.Readdir { dir; cookie; count })
        | Readdirplus ->
            let* dir = req_fh "dir" in
            let* cookie = req_i64 "cookie" in
            let* count = req_int "count" in
            Ok (Ops.Readdirplus { dir; cookie; count })
        | Commit ->
            let* fh = req_fh "fh" in
            let* offset = req_i64 "off" in
            let* count = req_int "count" in
            Ok (Ops.Commit { fh; offset; count })
      in
      let result =
        match result_toks with
        | None -> None
        | Some toks -> (
            let rkv = parse_kvs toks in
            let rget key = List.assoc_opt key rkv in
            let rint key = Option.bind (rget key) int_of_string_opt in
            let ri64 key = Option.bind (rget key) Int64.of_string_opt in
            match rint "status" with
            | None -> None
            | Some 0 -> (
                let attr =
                  match (ri64 "size", ri64 "fileid") with
                  | Some size, fileid ->
                      let ftype =
                        match rget "ftype" with
                        | Some "DIR" -> Types.Dir
                        | Some "LNK" -> Types.Lnk
                        | _ -> Types.Reg
                      in
                      let mtime =
                        Types.time_of_float
                          (Option.value
                             (Option.bind (rget "mtime") float_of_string_opt)
                             ~default:0.)
                      in
                      Some
                        {
                          Types.default_fattr with
                          size;
                          fileid = Option.value fileid ~default:0L;
                          ftype;
                          mtime;
                        }
                  | None, _ -> None
                in
                match (p : Proc.t) with
                | Null | Root | Writecache -> Some (Stdlib.Ok Ops.R_null)
                | Getattr | Setattr -> (
                    match attr with
                    | Some a -> Some (Stdlib.Ok (Ops.R_attr a))
                    | None -> Some (Stdlib.Ok Ops.R_empty))
                | Lookup -> (
                    match Option.bind (rget "rfh") fh_of_hex with
                    | Some fh -> Some (Stdlib.Ok (Ops.R_lookup { fh; obj = attr; dir = None }))
                    | None -> Some (Stdlib.Ok Ops.R_empty))
                | Access ->
                    Some (Stdlib.Ok (Ops.R_access (Option.value (rint "racc") ~default:0)))
                | Readlink ->
                    Some
                      (Stdlib.Ok
                         (Ops.R_readlink (unescape (Option.value (rget "rtarget") ~default:""))))
                | Read ->
                    Some
                      (Stdlib.Ok
                         (Ops.R_read
                            {
                              attr;
                              count = Option.value (rint "rcount") ~default:0;
                              eof = rget "eof" = Some "1";
                            }))
                | Write ->
                    Some
                      (Stdlib.Ok
                         (Ops.R_write
                            {
                              count = Option.value (rint "rcount") ~default:0;
                              committed =
                                Types.stable_how_of_int
                                  (Option.value (rint "committed") ~default:2);
                              attr;
                            }))
                | Create | Mkdir | Symlink | Mknod ->
                    Some
                      (Stdlib.Ok
                         (Ops.R_create { fh = Option.bind (rget "rfh") fh_of_hex; attr }))
                | Remove | Rmdir | Rename | Link | Commit -> Some (Stdlib.Ok Ops.R_empty)
                | Readdir | Readdirplus ->
                    Some (Stdlib.Ok (Ops.R_readdir { entries = []; eof = rget "eof" = Some "1" }))
                | Statfs ->
                    Some
                      (Stdlib.Ok
                         (Ops.R_statfs
                            {
                              total_bytes = Option.value (ri64 "tbytes") ~default:0L;
                              free_bytes = Option.value (ri64 "fbytes") ~default:0L;
                            }))
                | Fsinfo ->
                    Some
                      (Stdlib.Ok
                         (Ops.R_fsinfo
                            {
                              rtmax = Option.value (rint "rtmax") ~default:32768;
                              wtmax = Option.value (rint "wtmax") ~default:32768;
                            }))
                | Pathconf ->
                    Some
                      (Stdlib.Ok
                         (Ops.R_pathconf { name_max = Option.value (rint "namemax") ~default:255 })))
            | Some code -> Some (Stdlib.Error (Types.nfsstat_of_int code)))
      in
      Ok { Record.time; reply_time; version; client; server; xid; uid; gid; call; result }
  | _ -> Error "too few fields"
