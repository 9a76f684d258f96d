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

(* --- text serialization --- *)

let needs_escape c =
  match c with ' ' | '%' | '|' | '=' | '\n' | '\t' | '\r' -> true | c -> Char.code c < 32

let hex_digit n = "0123456789abcdef".[n]

let add_escaped b s =
  for i = 0 to String.length s - 1 do
    let c = s.[i] in
    if needs_escape c then begin
      Buffer.add_char b '%';
      Buffer.add_char b (hex_digit (Char.code c lsr 4));
      Buffer.add_char b (hex_digit (Char.code c land 0xF))
    end
    else Buffer.add_char b c
  done

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

(* The writer appends each field straight into the caller's buffer:
   decimal integers and hex bytes digit by digit, floats and the xid
   through the C formatters Printf itself calls, so the bytes are those
   of the sprintf renderings. *)
external format_float : string -> float -> string = "caml_format_float"
external format_int : string -> int -> string = "caml_format_int"

let rec add_digits b n =
  if n >= 10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))

let add_int b n = if n >= 0 then add_digits b n else Buffer.add_string b (string_of_int n)

let add_int64 b v =
  if Int64.compare v 0L >= 0 && Int64.compare v (Int64.of_int max_int) <= 0 then
    add_digits b (Int64.to_int v)
  else Buffer.add_string b (Int64.to_string v)

let add_hex_bytes b s =
  for i = 0 to String.length s - 1 do
    let c = Char.code s.[i] in
    Buffer.add_char b (hex_digit (c lsr 4));
    Buffer.add_char b (hex_digit (c land 0xF))
  done

let add_ip b ip =
  add_int b ((ip lsr 24) land 0xFF);
  Buffer.add_char b '.';
  add_int b ((ip lsr 16) land 0xFF);
  Buffer.add_char b '.';
  add_int b ((ip lsr 8) land 0xFF);
  Buffer.add_char b '.';
  add_int b (ip land 0xFF)

(* " key=": every field after the fixed columns starts this way. *)
let add_key b key =
  Buffer.add_char b ' ';
  Buffer.add_string b key;
  Buffer.add_char b '='

let add_fh b key fh =
  add_key b key;
  add_hex_bytes b (Fh.to_raw fh)

let add_name b key s =
  add_key b key;
  add_escaped b s

let add_kint b key n =
  add_key b key;
  add_int b n

let add_kint64 b key v =
  add_key b key;
  add_int64 b v

let add_kbool b key v =
  add_key b key;
  Buffer.add_char b (if v then '1' else '0')

let add_ktime b key t =
  add_key b key;
  Buffer.add_string b (string_of_float (Types.time_to_float t))

let add_call b (c : Ops.call) =
  match c with
  | Null -> ()
  | Getattr fh | Readlink fh | Statfs fh | Fsinfo fh | Pathconf fh -> add_fh b "fh" fh
  | Setattr { fh; attrs } ->
      add_fh b "fh" fh;
      Option.iter (add_kint64 b "ssize") attrs.set_size;
      Option.iter (add_kint b "smode") attrs.set_mode;
      Option.iter (add_kint b "suid") attrs.set_uid;
      Option.iter (add_kint b "sgid") attrs.set_gid;
      Option.iter (add_ktime b "satime") attrs.set_atime;
      Option.iter (add_ktime b "smtime") attrs.set_mtime
  | Lookup { dir; name } | Mknod { dir; name } | Remove { dir; name } | Rmdir { dir; name } ->
      add_fh b "dir" dir;
      add_name b "name" name
  | Access { fh; access } ->
      add_fh b "fh" fh;
      add_kint b "acc" access
  | Read { fh; offset; count } | Commit { fh; offset; count } ->
      add_fh b "fh" fh;
      add_kint64 b "off" offset;
      add_kint b "count" count
  | Write { fh; offset; count; stable } ->
      add_fh b "fh" fh;
      add_kint64 b "off" offset;
      add_kint b "count" count;
      add_kint b "stable" (Types.stable_how_to_int stable)
  | Create { dir; name; mode; exclusive } ->
      add_fh b "dir" dir;
      add_name b "name" name;
      add_kint b "mode" mode;
      add_kbool b "excl" exclusive
  | Mkdir { dir; name; mode } ->
      add_fh b "dir" dir;
      add_name b "name" name;
      add_kint b "mode" mode
  | Symlink { dir; name; target } ->
      add_fh b "dir" dir;
      add_name b "name" name;
      add_name b "target" target
  | Rename { from_dir; from_name; to_dir; to_name } ->
      add_fh b "dir" from_dir;
      add_name b "name" from_name;
      add_fh b "todir" to_dir;
      add_name b "toname" to_name
  | Link { fh; to_dir; to_name } ->
      add_fh b "fh" fh;
      add_fh b "todir" to_dir;
      add_name b "toname" to_name
  | Readdir { dir; cookie; count } | Readdirplus { dir; cookie; count } ->
      add_fh b "dir" dir;
      add_kint64 b "cookie" cookie;
      add_kint b "count" count

let add_attr b (a : Types.fattr) =
  add_kint64 b "size" a.size;
  add_kint64 b "fileid" a.fileid;
  add_key b "ftype";
  Buffer.add_string b (Types.ftype_to_string a.ftype);
  add_ktime b "mtime" a.mtime

let add_result b (r : Ops.result) =
  match r with
  | Error st -> add_kint b "status" (Types.nfsstat_to_int st)
  | Ok success -> (
      add_kint b "status" 0;
      match success with
      | R_null | R_empty -> ()
      | R_attr a -> add_attr b a
      | R_lookup { fh; obj; _ } ->
          add_fh b "rfh" fh;
          Option.iter (add_attr b) obj
      | R_access bits -> add_kint b "racc" bits
      | R_readlink target -> add_name b "rtarget" target
      | R_read { attr; count; eof } ->
          add_kint b "rcount" count;
          add_kbool b "eof" eof;
          Option.iter (add_attr b) attr
      | R_write { count; committed; attr } ->
          add_kint b "rcount" count;
          add_kint b "committed" (Types.stable_how_to_int committed);
          Option.iter (add_attr b) attr
      | R_create { fh; attr } ->
          Option.iter (add_fh b "rfh") fh;
          Option.iter (add_attr b) attr
      | R_readdir { entries; eof } ->
          (* Entry lists can be huge and no analysis consumes them from
             saved traces; only the count survives serialization. *)
          add_kint b "nentries" (List.length entries);
          add_kbool b "eof" eof
      | R_statfs { total_bytes; free_bytes } ->
          add_kint64 b "tbytes" total_bytes;
          add_kint64 b "fbytes" free_bytes
      | R_fsinfo { rtmax; wtmax } ->
          add_kint b "rtmax" rtmax;
          add_kint b "wtmax" wtmax
      | R_pathconf { name_max } -> add_kint b "namemax" name_max)

let add_line b t =
  Buffer.add_string b (format_float "%.6f" t.time);
  Buffer.add_char b ' ';
  (match t.reply_time with
  | Some rt -> Buffer.add_string b (format_float "%.6f" rt)
  | None -> Buffer.add_char b '-');
  Buffer.add_string b " v";
  add_int b t.version;
  Buffer.add_char b ' ';
  add_ip b t.client;
  Buffer.add_char b ' ';
  add_ip b t.server;
  Buffer.add_char b ' ';
  Buffer.add_string b (format_int "%08x" t.xid);
  Buffer.add_char b ' ';
  add_int b t.uid;
  Buffer.add_char b ' ';
  add_int b t.gid;
  Buffer.add_char b ' ';
  Buffer.add_string b (Proc.to_string (proc t));
  add_call b t.call;
  match t.result with
  | None -> ()
  | Some r ->
      Buffer.add_string b " |";
      add_result b r

let to_line t =
  let b = Buffer.create 256 in
  add_line b t;
  Buffer.contents b

(* --- parsing --- *)

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
        match Ip_addr.of_string client with Some ip -> Ok ip | None -> fail "bad client ip"
      in
      let* server =
        match Ip_addr.of_string server with Some ip -> Ok ip | None -> fail "bad server ip"
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
        match get key with Some hex -> Fh.of_hex hex | None -> None
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
                    match Option.bind (rget "rfh") Fh.of_hex with
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
                         (Ops.R_create { fh = Option.bind (rget "rfh") Fh.of_hex; attr }))
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
      Ok { time; reply_time; version; client; server; xid; uid; gid; call; result }
  | _ -> Error "too few fields"

let write_channel oc records =
  let n = ref 0 in
  let b = Buffer.create 256 in
  Seq.iter
    (fun r ->
      Buffer.clear b;
      add_line b r;
      Buffer.add_char b '\n';
      Buffer.output_buffer oc b;
      incr n)
    records;
  !n

let read_channel ic =
  let rec next () =
    match input_line ic with
    | exception End_of_file -> Seq.Nil
    | line -> (
        match of_line line with Ok r -> Seq.Cons (r, next) | Error _ -> next ())
  in
  next
