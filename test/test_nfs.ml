(* NFS protocol tests: file handles, procedure tables, and full
   wire-codec round trips for both NFSv2 and NFSv3. *)

module Fh = Nt_nfs.Fh
module Proc = Nt_nfs.Proc
module Types = Nt_nfs.Types
module Ops = Nt_nfs.Ops
module V2 = Nt_nfs.V2
module V3 = Nt_nfs.V3
module E = Nt_xdr.Encode
module D = Nt_xdr.Decode

(* --- file handles --- *)

let test_fh_make_fileid () =
  let fh = Fh.make ~fsid:3 ~fileid:12345 in
  Alcotest.(check (option int)) "fileid recovered" (Some 12345) (Fh.fileid fh);
  Alcotest.(check int) "32 bytes" 32 (String.length (Fh.to_raw fh))

let test_fh_foreign () =
  Alcotest.(check (option int)) "foreign handle has no fileid" None
    (Fh.fileid (Fh.of_raw "opaque-bytes-from-elsewhere"))

let test_fh_hex_roundtrip () =
  let fh = Fh.make ~fsid:1 ~fileid:999 in
  Alcotest.(check (option string)) "hex roundtrip" (Some (Fh.to_raw fh))
    (Option.map Fh.to_raw (Fh.of_hex (Fh.to_hex_full fh)))

let test_fh_of_hex_invalid () =
  Alcotest.(check bool) "odd length rejected" true (Fh.of_hex "abc" = None);
  Alcotest.(check bool) "non-hex rejected" true (Fh.of_hex "zz" = None)

let test_fh_v2_padding () =
  let short = Fh.of_raw "abc" in
  Alcotest.(check int) "padded to 32" 32 (String.length (Fh.to_v2_raw short))

let test_fh_equality () =
  let a = Fh.make ~fsid:1 ~fileid:5 and b = Fh.make ~fsid:1 ~fileid:5 in
  Alcotest.(check bool) "equal" true (Fh.equal a b);
  Alcotest.(check bool) "distinct" false (Fh.equal a (Fh.make ~fsid:1 ~fileid:6))

(* --- procedures --- *)

let test_proc_v3_numbering () =
  Alcotest.(check (option int)) "READ is 6" (Some 6) (Proc.v3_number Proc.Read);
  Alcotest.(check (option int)) "COMMIT is 21" (Some 21) (Proc.v3_number Proc.Commit);
  Alcotest.(check (option int)) "ROOT absent in v3" None (Proc.v3_number Proc.Root)

let test_proc_v2_numbering () =
  Alcotest.(check (option int)) "WRITE is 8 in v2" (Some 8) (Proc.v2_number Proc.Write);
  Alcotest.(check (option int)) "ACCESS absent in v2" None (Proc.v2_number Proc.Access)

let test_proc_roundtrip () =
  List.iter
    (fun p ->
      match Proc.v3_number p with
      | Some n ->
          Alcotest.(check bool)
            (Proc.to_string p ^ " roundtrips")
            true
            (Proc.of_v3_number n = Some p)
      | None -> ())
    Proc.all;
  List.iter
    (fun p ->
      match Proc.v2_number p with
      | Some n ->
          Alcotest.(check bool)
            (Proc.to_string p ^ " v2 roundtrips")
            true
            (Proc.of_v2_number n = Some p)
      | None -> ())
    Proc.all

let test_proc_classification () =
  Alcotest.(check bool) "read is data" true (Proc.is_data Proc.Read);
  Alcotest.(check bool) "write is data" true (Proc.is_data Proc.Write);
  Alcotest.(check bool) "getattr is metadata" false (Proc.is_data Proc.Getattr);
  Alcotest.(check bool) "lookup is metadata" false (Proc.is_data Proc.Lookup);
  Alcotest.(check bool) "commit is not a data op" false (Proc.is_data Proc.Commit)

(* --- nfsstat --- *)

let test_nfsstat_roundtrip () =
  List.iter
    (fun st ->
      Alcotest.(check bool)
        (Types.nfsstat_to_string st ^ " roundtrips")
        true
        (Types.nfsstat_of_int (Types.nfsstat_to_int st) = st))
    [ Types.Ok_; Types.Err_noent; Types.Err_stale; Types.Err_dquot; Types.Err_jukebox;
      Types.Err_unknown 424242 ]

let test_time_conversion () =
  let t = Types.time_of_float 1003622400.123456789 in
  Alcotest.(check (float 1e-6) "time roundtrip") 1003622400.123456789 (Types.time_to_float t)

(* --- unified op helpers --- *)

let dir_fh = Fh.make ~fsid:1 ~fileid:2
let file_fh = Fh.make ~fsid:1 ~fileid:3

let test_call_fh () =
  Alcotest.(check bool) "read fh" true
    (Ops.call_fh (Ops.Read { fh = file_fh; offset = 0L; count = 1 }) = Some file_fh);
  Alcotest.(check bool) "lookup dir" true
    (Ops.call_fh (Ops.Lookup { dir = dir_fh; name = "x" }) = Some dir_fh);
  Alcotest.(check bool) "null has none" true (Ops.call_fh Ops.Null = None)

let test_call_name () =
  Alcotest.(check (option string)) "create name" (Some "f")
    (Ops.call_name (Ops.Create { dir = dir_fh; name = "f"; mode = 0o644; exclusive = false }));
  Alcotest.(check (option string)) "read has none" None
    (Ops.call_name (Ops.Read { fh = file_fh; offset = 0L; count = 1 }))

let test_describe_call () =
  let s = Ops.describe_call (Ops.Read { fh = file_fh; offset = 8192L; count = 4096 }) in
  Alcotest.(check bool) "mentions proc" true (String.length s > 4 && String.sub s 0 4 = "read")

(* --- v3 codec round trips --- *)

let v3_call_roundtrip call =
  let e = E.create () in
  V3.encode_call e call;
  let proc = Ops.proc_of_call call in
  V3.decode_call ~proc (D.of_string (E.contents e))

let sample_attr =
  { Types.default_fattr with size = 123456L; fileid = 42L; mtime = Types.time_of_float 1000. }

let all_calls =
  [
    Ops.Null;
    Ops.Getattr file_fh;
    Ops.Setattr { fh = file_fh; attrs = { Types.empty_sattr with set_size = Some 100L } };
    Ops.Lookup { dir = dir_fh; name = "file.txt" };
    Ops.Access { fh = file_fh; access = 0x1F };
    Ops.Readlink file_fh;
    Ops.Read { fh = file_fh; offset = 65536L; count = 8192 };
    Ops.Write { fh = file_fh; offset = 8192L; count = 4096; stable = Types.Unstable };
    Ops.Create { dir = dir_fh; name = "new"; mode = 0o600; exclusive = false };
    Ops.Create { dir = dir_fh; name = "excl"; mode = 0o644; exclusive = true };
    Ops.Mkdir { dir = dir_fh; name = "subdir"; mode = 0o755 };
    Ops.Symlink { dir = dir_fh; name = "link"; target = "../target" };
    Ops.Mknod { dir = dir_fh; name = "fifo" };
    Ops.Remove { dir = dir_fh; name = "old" };
    Ops.Rmdir { dir = dir_fh; name = "olddir" };
    Ops.Rename { from_dir = dir_fh; from_name = "a"; to_dir = dir_fh; to_name = "b" };
    Ops.Link { fh = file_fh; to_dir = dir_fh; to_name = "hard" };
    Ops.Readdir { dir = dir_fh; cookie = 7L; count = 4096 };
    Ops.Readdirplus { dir = dir_fh; cookie = 0L; count = 8192 };
    Ops.Statfs file_fh;
    Ops.Fsinfo file_fh;
    Ops.Pathconf file_fh;
    Ops.Commit { fh = file_fh; offset = 0L; count = 32768 };
  ]

let test_v3_all_calls_roundtrip () =
  List.iter
    (fun call ->
      let call' = v3_call_roundtrip call in
      let name = Proc.to_string (Ops.proc_of_call call) in
      Alcotest.(check bool) (name ^ " same proc") true
        (Ops.proc_of_call call' = Ops.proc_of_call call);
      Alcotest.(check bool) (name ^ " same fh") true (Ops.call_fh call' = Ops.call_fh call);
      Alcotest.(check bool) (name ^ " same name") true (Ops.call_name call' = Ops.call_name call))
    all_calls

let test_v3_read_args_exact () =
  match v3_call_roundtrip (Ops.Read { fh = file_fh; offset = 99999L; count = 1234 }) with
  | Ops.Read r ->
      Alcotest.(check int64) "offset" 99999L r.offset;
      Alcotest.(check int) "count" 1234 r.count
  | _ -> Alcotest.fail "expected read"

let test_v3_write_stable_modes () =
  List.iter
    (fun stable ->
      match v3_call_roundtrip (Ops.Write { fh = file_fh; offset = 0L; count = 10; stable }) with
      | Ops.Write w -> Alcotest.(check bool) "stable survives" true (w.stable = stable)
      | _ -> Alcotest.fail "expected write")
    [ Types.Unstable; Types.Data_sync; Types.File_sync ]

let v3_result_roundtrip ~proc result =
  let e = E.create () in
  V3.encode_result e ~proc result;
  V3.decode_result ~proc (D.of_string (E.contents e))

let test_v3_getattr_result () =
  match v3_result_roundtrip ~proc:Proc.Getattr (Ok (Ops.R_attr sample_attr)) with
  | Ok (Ops.R_attr a) ->
      Alcotest.(check int64) "size" sample_attr.size a.size;
      Alcotest.(check int64) "fileid" sample_attr.fileid a.fileid
  | _ -> Alcotest.fail "expected attr"

let test_v3_lookup_result () =
  let r =
    Ok (Ops.R_lookup { fh = file_fh; obj = Some sample_attr; dir = Some Types.default_fattr })
  in
  match v3_result_roundtrip ~proc:Proc.Lookup r with
  | Ok (Ops.R_lookup { fh; obj = Some a; dir = Some _ }) ->
      Alcotest.(check bool) "fh" true (Fh.equal fh file_fh);
      Alcotest.(check int64) "obj size" sample_attr.size a.size
  | _ -> Alcotest.fail "expected lookup result"

let test_v3_read_result () =
  match
    v3_result_roundtrip ~proc:Proc.Read (Ok (Ops.R_read { attr = Some sample_attr; count = 777; eof = true }))
  with
  | Ok (Ops.R_read r) ->
      Alcotest.(check int) "count" 777 r.count;
      Alcotest.(check bool) "eof" true r.eof;
      Alcotest.(check bool) "attr present" true (r.attr <> None)
  | _ -> Alcotest.fail "expected read result"

let test_v3_write_result () =
  match
    v3_result_roundtrip ~proc:Proc.Write
      (Ok (Ops.R_write { count = 512; committed = Types.Data_sync; attr = Some sample_attr }))
  with
  | Ok (Ops.R_write w) ->
      Alcotest.(check int) "count" 512 w.count;
      Alcotest.(check bool) "committed" true (w.committed = Types.Data_sync)
  | _ -> Alcotest.fail "expected write result"

let test_v3_readdir_result () =
  let entries =
    [
      { Ops.entry_fileid = 10L; entry_name = "a"; entry_cookie = 1L };
      { Ops.entry_fileid = 11L; entry_name = "bb"; entry_cookie = 2L };
      { Ops.entry_fileid = 12L; entry_name = "ccc"; entry_cookie = 3L };
    ]
  in
  List.iter
    (fun proc ->
      match v3_result_roundtrip ~proc (Ok (Ops.R_readdir { entries; eof = false })) with
      | Ok (Ops.R_readdir { entries = e'; eof }) ->
          Alcotest.(check int) "entry count" 3 (List.length e');
          Alcotest.(check bool) "eof" false eof;
          Alcotest.(check string) "names preserved" "bb" (List.nth e' 1).Ops.entry_name
      | _ -> Alcotest.fail "expected readdir result")
    [ Proc.Readdir; Proc.Readdirplus ]

let test_v3_error_result () =
  match v3_result_roundtrip ~proc:Proc.Lookup (Error Types.Err_noent) with
  | Error Types.Err_noent -> ()
  | _ -> Alcotest.fail "expected ENOENT"

let test_v3_all_errors_roundtrip () =
  List.iter
    (fun st ->
      match v3_result_roundtrip ~proc:Proc.Getattr (Error st) with
      | Error st' -> Alcotest.(check bool) "status" true (st = st')
      | Ok _ -> Alcotest.fail "expected error")
    [ Types.Err_perm; Types.Err_acces; Types.Err_stale; Types.Err_notempty ]

(* --- v2 codec --- *)

let v2_call_roundtrip call =
  let e = E.create () in
  V2.encode_call e call;
  let proc = Ops.proc_of_call call in
  V2.decode_call ~proc (D.of_string (E.contents e))

let test_v2_calls_roundtrip () =
  let v2_calls =
    List.filter
      (fun c -> Proc.v2_number (Ops.proc_of_call c) <> None)
      (List.filter
         (fun c ->
           match c with
           | Ops.Access _ | Ops.Mknod _ | Ops.Readdirplus _ | Ops.Fsinfo _ | Ops.Pathconf _
           | Ops.Commit _ ->
               false
           | _ -> true)
         all_calls)
  in
  Alcotest.(check bool) "several v2 calls" true (List.length v2_calls > 10);
  List.iter
    (fun call ->
      let call' = v2_call_roundtrip call in
      let name = Proc.to_string (Ops.proc_of_call call) in
      Alcotest.(check bool) (name ^ " proc") true (Ops.proc_of_call call' = Ops.proc_of_call call);
      Alcotest.(check bool) (name ^ " name") true (Ops.call_name call' = Ops.call_name call))
    v2_calls

let test_v2_unsupported_raises () =
  Alcotest.(check bool) "ACCESS unsupported in v2" true
    (try
       ignore (v2_call_roundtrip (Ops.Access { fh = file_fh; access = 1 }));
       false
     with V2.Unsupported _ -> true)

let test_v2_write_count_from_data () =
  match v2_call_roundtrip (Ops.Write { fh = file_fh; offset = 100L; count = 300; stable = Types.File_sync }) with
  | Ops.Write w ->
      Alcotest.(check int) "count from opaque data" 300 w.count;
      Alcotest.(check int64) "offset" 100L w.offset
  | _ -> Alcotest.fail "expected write"

let test_v2_fattr_roundtrip () =
  let e = E.create () in
  V2.encode_fattr e sample_attr;
  let a = V2.decode_fattr (D.of_string (E.contents e)) in
  Alcotest.(check int64) "size" sample_attr.size a.size;
  Alcotest.(check bool) "type" true (a.ftype = Types.Reg)

let test_v2_size_clamp () =
  let big = { sample_attr with size = 0x200000000L } in
  let e = E.create () in
  V2.encode_fattr e big;
  let a = V2.decode_fattr (D.of_string (E.contents e)) in
  Alcotest.(check int64) "clamped to 32 bits" 0xFFFFFFFFL a.size

let test_v2_read_result () =
  let e = E.create () in
  V2.encode_result e ~proc:Proc.Read
    (Ok (Ops.R_read { attr = Some sample_attr; count = 2048; eof = false }));
  match V2.decode_result ~proc:Proc.Read (D.of_string (E.contents e)) with
  | Ok (Ops.R_read r) -> Alcotest.(check int) "count from data" 2048 r.count
  | _ -> Alcotest.fail "expected read result"

let test_v2_error_mapping () =
  let e = E.create () in
  V2.encode_result e ~proc:Proc.Lookup (Error Types.Err_jukebox);
  match V2.decode_result ~proc:Proc.Lookup (D.of_string (E.contents e)) with
  | Error Types.Err_io -> () (* v3-only codes degrade to EIO *)
  | _ -> Alcotest.fail "expected EIO"

(* --- property: random read/write args roundtrip both versions --- *)

let prop_v3_read_args =
  QCheck.Test.make ~name:"v3 read args roundtrip" ~count:300
    QCheck.(pair (int_range 0 1_000_000_000) (int_range 1 100_000))
    (fun (off, count) ->
      match v3_call_roundtrip (Ops.Read { fh = file_fh; offset = Int64.of_int off; count }) with
      | Ops.Read r -> r.offset = Int64.of_int off && r.count = count
      | _ -> false)

let prop_v3_name_calls =
  QCheck.Test.make ~name:"v3 names with odd bytes roundtrip" ~count:300
    QCheck.(string_of_size Gen.(1 -- 100))
    (fun name ->
      match v3_call_roundtrip (Ops.Lookup { dir = dir_fh; name }) with
      | Ops.Lookup l -> String.equal l.name name
      | _ -> false)

let () =
  Alcotest.run "nt_nfs"
    [
      ( "fh",
        [
          Alcotest.test_case "make/fileid" `Quick test_fh_make_fileid;
          Alcotest.test_case "foreign" `Quick test_fh_foreign;
          Alcotest.test_case "hex roundtrip" `Quick test_fh_hex_roundtrip;
          Alcotest.test_case "invalid hex" `Quick test_fh_of_hex_invalid;
          Alcotest.test_case "v2 padding" `Quick test_fh_v2_padding;
          Alcotest.test_case "equality" `Quick test_fh_equality;
        ] );
      ( "proc",
        [
          Alcotest.test_case "v3 numbering" `Quick test_proc_v3_numbering;
          Alcotest.test_case "v2 numbering" `Quick test_proc_v2_numbering;
          Alcotest.test_case "numbering roundtrip" `Quick test_proc_roundtrip;
          Alcotest.test_case "classification" `Quick test_proc_classification;
        ] );
      ( "types",
        [
          Alcotest.test_case "nfsstat roundtrip" `Quick test_nfsstat_roundtrip;
          Alcotest.test_case "time conversion" `Quick test_time_conversion;
        ] );
      ( "ops",
        [
          Alcotest.test_case "call_fh" `Quick test_call_fh;
          Alcotest.test_case "call_name" `Quick test_call_name;
          Alcotest.test_case "describe" `Quick test_describe_call;
        ] );
      ( "v3",
        [
          Alcotest.test_case "all calls roundtrip" `Quick test_v3_all_calls_roundtrip;
          Alcotest.test_case "read args exact" `Quick test_v3_read_args_exact;
          Alcotest.test_case "write stable modes" `Quick test_v3_write_stable_modes;
          Alcotest.test_case "getattr result" `Quick test_v3_getattr_result;
          Alcotest.test_case "lookup result" `Quick test_v3_lookup_result;
          Alcotest.test_case "read result" `Quick test_v3_read_result;
          Alcotest.test_case "write result" `Quick test_v3_write_result;
          Alcotest.test_case "readdir result" `Quick test_v3_readdir_result;
          Alcotest.test_case "error result" `Quick test_v3_error_result;
          Alcotest.test_case "all errors roundtrip" `Quick test_v3_all_errors_roundtrip;
          QCheck_alcotest.to_alcotest prop_v3_read_args;
          QCheck_alcotest.to_alcotest prop_v3_name_calls;
        ] );
      ( "v2",
        [
          Alcotest.test_case "calls roundtrip" `Quick test_v2_calls_roundtrip;
          Alcotest.test_case "unsupported raises" `Quick test_v2_unsupported_raises;
          Alcotest.test_case "write count from data" `Quick test_v2_write_count_from_data;
          Alcotest.test_case "fattr roundtrip" `Quick test_v2_fattr_roundtrip;
          Alcotest.test_case "size clamp" `Quick test_v2_size_clamp;
          Alcotest.test_case "read result" `Quick test_v2_read_result;
          Alcotest.test_case "error mapping" `Quick test_v2_error_mapping;
        ] );
    ]
