(* ONC RPC message layer and TCP record-marking tests. *)

module E = Nt_xdr.Encode
module Rpc = Nt_rpc.Rpc_msg
module Rm = Nt_rpc.Record_mark

let encode_call c =
  let e = E.create () in
  Rpc.encode_call e c;
  E.contents e

let encode_reply r =
  let e = E.create () in
  Rpc.encode_reply e r;
  E.contents e

let sample_call =
  {
    Rpc.xid = 0xDEADBEEF;
    rpcvers = 2;
    prog = Rpc.nfs_program;
    vers = 3;
    proc = 6;
    cred = Rpc.Auth_unix { stamp = 99; machine = "wks1"; uid = 501; gid = 100; gids = [ 100; 20 ] };
    verf = Rpc.Auth_null;
  }

let test_call_roundtrip () =
  let s = encode_call sample_call in
  match Rpc.decode s ~pos:0 ~len:(String.length s) with
  | Rpc.Call c, body ->
      Alcotest.(check int) "xid" sample_call.xid c.xid;
      Alcotest.(check int) "prog" Rpc.nfs_program c.prog;
      Alcotest.(check int) "vers" 3 c.vers;
      Alcotest.(check int) "proc" 6 c.proc;
      Alcotest.(check int) "body at end" (String.length s) body;
      (match c.cred with
      | Rpc.Auth_unix u ->
          Alcotest.(check int) "uid" 501 u.uid;
          Alcotest.(check int) "gid" 100 u.gid;
          Alcotest.(check string) "machine" "wks1" u.machine;
          Alcotest.(check (list int)) "gids" [ 100; 20 ] u.gids
      | _ -> Alcotest.fail "expected Auth_unix")
  | Rpc.Reply _, _ -> Alcotest.fail "expected call"

let test_call_auth_null () =
  let c = { sample_call with cred = Rpc.Auth_null } in
  let s = encode_call c in
  match Rpc.decode s ~pos:0 ~len:(String.length s) with
  | Rpc.Call c', _ -> Alcotest.(check bool) "auth null" true (c'.cred = Rpc.Auth_null)
  | _ -> Alcotest.fail "expected call"

let test_auth_other_preserved () =
  let c = { sample_call with cred = Rpc.Auth_other (6, "gss-blob") } in
  let s = encode_call c in
  match Rpc.decode s ~pos:0 ~len:(String.length s) with
  | Rpc.Call c', _ -> (
      match c'.cred with
      | Rpc.Auth_other (flavor, body) ->
          Alcotest.(check int) "flavor" 6 flavor;
          Alcotest.(check string) "body" "gss-blob" body
      | _ -> Alcotest.fail "expected Auth_other")
  | _ -> Alcotest.fail "expected call"

let roundtrip_reply r =
  let s = encode_reply r in
  match Rpc.decode s ~pos:0 ~len:(String.length s) with
  | Rpc.Reply r', _ -> r'
  | Rpc.Call _, _ -> Alcotest.fail "expected reply"

let test_reply_success () =
  let r = roundtrip_reply { Rpc.xid = 7; verf = Rpc.Auth_null; status = Rpc.Accepted Rpc.Success } in
  Alcotest.(check int) "xid" 7 r.xid;
  Alcotest.(check bool) "success" true (r.status = Rpc.Accepted Rpc.Success)

let test_reply_statuses () =
  List.iter
    (fun status ->
      let r = roundtrip_reply { Rpc.xid = 1; verf = Rpc.Auth_null; status } in
      Alcotest.(check bool) "status survives" true (r.status = status))
    [
      Rpc.Accepted Rpc.Prog_unavail;
      Rpc.Accepted (Rpc.Prog_mismatch (2, 3));
      Rpc.Accepted Rpc.Proc_unavail;
      Rpc.Accepted Rpc.Garbage_args;
      Rpc.Accepted Rpc.System_err;
      Rpc.Denied (Rpc.Rpc_mismatch (2, 2));
      Rpc.Denied (Rpc.Auth_error 5);
    ]

let test_bad_rpc_version () =
  let c = { sample_call with rpcvers = 3 } in
  let s = encode_call c in
  Alcotest.(check bool) "rpcvers 3 rejected" true
    (try
       ignore (Rpc.decode s ~pos:0 ~len:(String.length s));
       false
     with Nt_xdr.Decode.Error _ -> true)

let test_garbage_rejected () =
  Alcotest.(check bool) "garbage rejected" true
    (try
       ignore (Rpc.decode "\x00\x00\x00\x01\x00\x00\x00\x09" ~pos:0 ~len:8);
       false
     with Nt_xdr.Decode.Error _ -> true)

(* --- record marking --- *)

let test_frame_single () =
  let framed = Rm.frame "hello" in
  Alcotest.(check int) "4-byte header" 9 (String.length framed);
  Alcotest.(check int) "last-fragment bit" 0x80 (Char.code framed.[0]);
  let r = Rm.create_reassembler () in
  Alcotest.(check (list string)) "roundtrip" [ "hello" ] (Rm.push r framed)

let test_frame_fragmented () =
  let msg = String.init 100 (fun i -> Char.chr (i land 0xFF)) in
  let framed = Rm.frame_fragmented ~fragment_size:7 msg in
  let r = Rm.create_reassembler () in
  Alcotest.(check (list string)) "reassembled" [ msg ] (Rm.push r framed)

let test_byte_at_a_time () =
  let msg = "the quick brown fox" in
  let framed = Rm.frame msg in
  let r = Rm.create_reassembler () in
  let out = ref [] in
  String.iter (fun c -> out := !out @ Rm.push r (String.make 1 c)) framed;
  Alcotest.(check (list string)) "byte-wise delivery" [ msg ] !out

let test_multiple_records_one_push () =
  let r = Rm.create_reassembler () in
  let stream = Rm.frame "one" ^ Rm.frame "two" ^ Rm.frame "three" in
  Alcotest.(check (list string)) "coalesced records" [ "one"; "two"; "three" ] (Rm.push r stream)

let test_empty_record () =
  let r = Rm.create_reassembler () in
  Alcotest.(check (list string)) "empty record" [ "" ] (Rm.push r (Rm.frame ""))

let test_pending_bytes () =
  let r = Rm.create_reassembler () in
  let framed = Rm.frame "abcdefgh" in
  ignore (Rm.push r (String.sub framed 0 6));
  Alcotest.(check bool) "bytes pending" true (Rm.pending_bytes r > 0);
  ignore (Rm.push r (String.sub framed 6 (String.length framed - 6)));
  Alcotest.(check int) "drained" 0 (Rm.pending_bytes r)

let test_desync_resync () =
  (* Garbage with an absurd length header, then a valid record: the
     reassembler must scan past the junk and recover. *)
  let r = Rm.create_reassembler () in
  let junk = "\x7F\xFF\xFF\xFF\x00\x00\x00\x00" in
  let good = Rm.frame "recovered" in
  let out = Rm.push r (junk ^ good) in
  Alcotest.(check (list string)) "resynced" [ "recovered" ] out

let prop_random_chunking =
  QCheck.Test.make ~name:"record marking survives arbitrary chunking" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 5) (string_of_size Gen.(0 -- 64))) (int_range 1 13))
    (fun (messages, chunk) ->
      let stream = String.concat "" (List.map Rm.frame messages) in
      let r = Rm.create_reassembler () in
      let out = ref [] in
      let n = String.length stream in
      let i = ref 0 in
      while !i < n do
        let len = min chunk (n - !i) in
        out := !out @ Rm.push r (String.sub stream !i len);
        i := !i + len
      done;
      !out = messages)

(* The slice entry point over a stream that sits mid-buffer: every
   split into two pushes gives the records of one whole push. *)
let test_slice_split_every_offset () =
  let messages = [ "one"; String.make 300 'x'; ""; "fragmented across headers"; "last" ] in
  let stream =
    String.concat ""
      (List.mapi
         (fun i m -> if i = 3 then Rm.frame_fragmented ~fragment_size:5 m else Rm.frame m)
         messages)
  in
  let buf = "JUNK" ^ stream ^ "TAIL" in
  let n = String.length stream in
  let collect records s off len = records := String.sub s off len :: !records in
  let push_range r records off len = Rm.push_slice r buf ~off:(4 + off) ~len collect records in
  let whole =
    let r = Rm.create_reassembler () and records = ref [] in
    push_range r records 0 n;
    List.rev !records
  in
  Alcotest.(check (list string)) "whole buffer" messages whole;
  for k = 0 to n do
    let r = Rm.create_reassembler () and records = ref [] in
    push_range r records 0 k;
    push_range r records k (n - k);
    Alcotest.(check (list string)) (Printf.sprintf "split at %d" k) whole (List.rev !records);
    Alcotest.(check int) "nothing pending" 0 (Rm.pending_bytes r)
  done

let test_reset_drops_partial () =
  let r = Rm.create_reassembler () in
  let framed = Rm.frame "lost to a gap" in
  ignore (Rm.push r (String.sub framed 0 7));
  Rm.reset r;
  Alcotest.(check int) "partial dropped" 0 (Rm.pending_bytes r);
  Alcotest.(check (list string)) "next record clean" [ "after" ] (Rm.push r (Rm.frame "after"))

let prop_fragmentation_equivalence =
  QCheck.Test.make ~name:"fragment size does not change the message" ~count:200
    QCheck.(pair (string_of_size Gen.(1 -- 200)) (int_range 1 64))
    (fun (msg, frag) ->
      let r = Rm.create_reassembler () in
      Rm.push r (Rm.frame_fragmented ~fragment_size:frag msg) = [ msg ])

let () =
  Alcotest.run "nt_rpc"
    [
      ( "messages",
        [
          Alcotest.test_case "call roundtrip" `Quick test_call_roundtrip;
          Alcotest.test_case "auth null" `Quick test_call_auth_null;
          Alcotest.test_case "auth other preserved" `Quick test_auth_other_preserved;
          Alcotest.test_case "reply success" `Quick test_reply_success;
          Alcotest.test_case "reply statuses" `Quick test_reply_statuses;
          Alcotest.test_case "bad rpc version" `Quick test_bad_rpc_version;
          Alcotest.test_case "garbage rejected" `Quick test_garbage_rejected;
        ] );
      ( "record-marking",
        [
          Alcotest.test_case "single frame" `Quick test_frame_single;
          Alcotest.test_case "fragmented" `Quick test_frame_fragmented;
          Alcotest.test_case "byte at a time" `Quick test_byte_at_a_time;
          Alcotest.test_case "coalesced records" `Quick test_multiple_records_one_push;
          Alcotest.test_case "empty record" `Quick test_empty_record;
          Alcotest.test_case "pending bytes" `Quick test_pending_bytes;
          Alcotest.test_case "desync resync" `Quick test_desync_resync;
          Alcotest.test_case "slice split at every offset" `Quick test_slice_split_every_offset;
          Alcotest.test_case "reset drops the partial record" `Quick test_reset_drops_partial;
          QCheck_alcotest.to_alcotest prop_random_chunking;
          QCheck_alcotest.to_alcotest prop_fragmentation_equivalence;
        ] );
    ]
