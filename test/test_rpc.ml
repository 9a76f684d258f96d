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

(* --- one grammar: the scratch header reader against Rpc_msg.decode --- *)

module D = Nt_xdr.Decode

(* The RPC header decoder as it stood before the scratch reader: each
   auth body copied out, then parsed by a second decoder. An
   independent oracle for the bounds checks the in-place reader keeps. *)
module Copying_oracle = struct
  let auth d =
    let flavor = D.uint32 d in
    let body = D.opaque d in
    match flavor with
    | 0 -> Rpc.Auth_null
    | 1 ->
        let bd = D.of_string body in
        let stamp = D.uint32 bd in
        let machine = D.string bd in
        let uid = D.uint32 bd in
        let gid = D.uint32 bd in
        let gids = D.array bd D.uint32 in
        Rpc.Auth_unix { stamp; machine; uid; gid; gids }
    | n -> Rpc.Auth_other (n, body)

  let decode s ~pos ~len : Rpc.msg * int =
    let d = D.of_string ~pos ~len s in
    let xid = D.uint32 d in
    let reply verf status = (Rpc.Reply { xid; verf; status }, D.pos d) in
    match D.uint32 d with
    | 0 ->
        let rpcvers = D.uint32 d in
        if rpcvers <> 2 then raise (D.Error "rpcvers");
        let prog = D.uint32 d in
        let vers = D.uint32 d in
        let proc = D.uint32 d in
        let cred = auth d in
        let verf = auth d in
        (Rpc.Call { xid; rpcvers; prog; vers; proc; cred; verf }, D.pos d)
    | 1 -> (
        match D.uint32 d with
        | 0 -> (
            let verf = auth d in
            match D.uint32 d with
            | 0 -> reply verf (Rpc.Accepted Rpc.Success)
            | 1 -> reply verf (Rpc.Accepted Rpc.Prog_unavail)
            | 2 ->
                let lo = D.uint32 d in
                let hi = D.uint32 d in
                reply verf (Rpc.Accepted (Rpc.Prog_mismatch (lo, hi)))
            | 3 -> reply verf (Rpc.Accepted Rpc.Proc_unavail)
            | 4 -> reply verf (Rpc.Accepted Rpc.Garbage_args)
            | 5 -> reply verf (Rpc.Accepted Rpc.System_err)
            | _ -> raise (D.Error "accept status"))
        | 1 -> (
            match D.uint32 d with
            | 0 ->
                let lo = D.uint32 d in
                let hi = D.uint32 d in
                reply Rpc.Auth_null (Rpc.Denied (Rpc.Rpc_mismatch (lo, hi)))
            | 1 -> reply Rpc.Auth_null (Rpc.Denied (Rpc.Auth_error (D.uint32 d)))
            | _ -> raise (D.Error "reject status"))
        | _ -> raise (D.Error "reply status"))
    | _ -> raise (D.Error "message type")
end

let gen_auth =
  let open QCheck.Gen in
  frequency
    [
      (1, return Rpc.Auth_null);
      ( 3,
        map
          (fun ((stamp, machine), (uid, gid, gids)) ->
            Rpc.Auth_unix { stamp; machine; uid; gid; gids })
          (pair
             (pair (int_bound 0xFFFF) (string_size ~gen:printable (0 -- 20)))
             (triple (int_bound 70_000) (int_bound 70_000)
                (list_size (0 -- 16) (int_bound 70_000)))) );
      (1, map2 (fun f b -> Rpc.Auth_other (f, b)) (int_range 2 400) (string_size (0 -- 24)));
    ]

let gen_status =
  let open QCheck.Gen in
  let version = int_bound 5 in
  oneof
    [
      return (Rpc.Accepted Rpc.Success);
      return (Rpc.Accepted Rpc.Prog_unavail);
      map2 (fun lo hi -> Rpc.Accepted (Rpc.Prog_mismatch (lo, hi))) version version;
      return (Rpc.Accepted Rpc.Proc_unavail);
      return (Rpc.Accepted Rpc.Garbage_args);
      return (Rpc.Accepted Rpc.System_err);
      map2 (fun lo hi -> Rpc.Denied (Rpc.Rpc_mismatch (lo, hi))) version version;
      map (fun st -> Rpc.Denied (Rpc.Auth_error st)) (int_bound 7);
    ]

let gen_msg =
  let open QCheck.Gen in
  let xid = int_bound 0xFFFF_FFFF in
  frequency
    [
      ( 1,
        map
          (fun ((xid, vers, proc), (cred, verf)) ->
            encode_call
              { Rpc.xid; rpcvers = 2; prog = Rpc.nfs_program; vers; proc; cred; verf })
          (pair (triple xid (int_range 1 4) (int_bound 22)) (pair gen_auth gen_auth)) );
      ( 1,
        map
          (fun (xid, verf, status) -> encode_reply { Rpc.xid; verf; status })
          (triple xid gen_auth gen_status) );
    ]

(* A message between junk before it and a body after it, then left
   alone, byte-flipped or truncated. *)
let gen_case =
  let open QCheck.Gen in
  triple (string_size (0 -- 7)) gen_msg (string_size (0 -- 40)) >>= fun (pre, msg, body) ->
  let s = pre ^ msg ^ body and pos = String.length pre in
  let len = String.length msg + String.length body in
  oneof
    [
      return (s, pos, len);
      ( list_size (1 -- 3) (pair (int_bound (len - 1)) (int_range 1 255)) >|= fun flips ->
        let b = Bytes.of_string s in
        List.iter
          (fun (i, mask) ->
            Bytes.set b (pos + i) (Char.chr (Char.code (Bytes.get b (pos + i)) lxor mask)))
          flips;
        (Bytes.to_string b, pos, len) );
      (int_bound len >|= fun cut -> (s, pos, cut));
    ]

let print_case (s, pos, len) =
  Printf.sprintf "pos=%d len=%d %s" pos len
    (String.concat "" (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i]))))

let status_of_msg = function
  | Rpc.Call _ -> None
  | Rpc.Reply { status = Rpc.Accepted st; _ } ->
      Some
        (match st with
        | Rpc.Success -> (true, 0, 0, 0)
        | Rpc.Prog_unavail -> (true, 1, 0, 0)
        | Rpc.Prog_mismatch (lo, hi) -> (true, 2, lo, hi)
        | Rpc.Proc_unavail -> (true, 3, 0, 0)
        | Rpc.Garbage_args -> (true, 4, 0, 0)
        | Rpc.System_err -> (true, 5, 0, 0))
  | Rpc.Reply { status = Rpc.Denied (Rpc.Rpc_mismatch (lo, hi)); _ } -> Some (false, 0, lo, hi)
  | Rpc.Reply { status = Rpc.Denied (Rpc.Auth_error st); _ } -> Some (false, 1, st, 0)

let status_of_header (h : Rpc.header) =
  if h.is_call then None
  else
    match (h.accepted, h.stat) with
    | true, 2 | false, 0 -> Some (h.accepted, h.stat, h.lo, h.hi)
    | false, _ -> Some (false, h.stat, h.lo, 0)
    | true, _ -> Some (true, h.stat, 0, 0)

(* The fields the capture reads, from a decoded msg. *)
let fields_of_msg (m, body) =
  let uid_gid = function Rpc.Auth_unix { uid; gid; _ } -> (uid, gid) | _ -> (0, 0) in
  match m with
  | Rpc.Call c -> (c.xid, true, c.prog, c.vers, c.proc, uid_gid c.cred, status_of_msg m, body)
  | Rpc.Reply r -> (r.xid, false, 0, 0, 0, (0, 0), status_of_msg m, body)

let fields_of_header (h : Rpc.header) =
  if h.is_call then
    (h.xid, true, h.prog, h.vers, h.proc, (h.cred.uid, h.cred.gid), None, h.body)
  else (h.xid, false, 0, 0, 0, (0, 0), status_of_header h, h.body)

(* One header and one decoder serve every case, as in the capture: no
   field of an earlier message may leak into a later verdict. *)
let scratch = Rpc.create_header ()
let scratch_dec = D.empty ()

let prop_one_grammar =
  QCheck.Test.make ~name:"scratch header reader = Rpc_msg.decode = copying decoder" ~count:3000
    (QCheck.make ~print:print_case gen_case)
    (fun (s, pos, len) ->
      let verdict f = match f () with v -> Some v | exception D.Error _ -> None in
      let read =
        verdict (fun () ->
            D.reset scratch_dec s ~pos ~len;
            Rpc.read_header scratch scratch_dec;
            fields_of_header scratch)
      in
      let decoded = verdict (fun () -> Rpc.decode s ~pos ~len) in
      let oracle = verdict (fun () -> Copying_oracle.decode s ~pos ~len) in
      (match (read, decoded, oracle) with
      | None, None, None -> ()
      | Some r, Some d, Some o ->
          if r <> fields_of_msg d then QCheck.Test.fail_report "reader and decode disagree";
          if d <> o then QCheck.Test.fail_report "decode and the copying oracle disagree"
      | _ ->
          let v = function Some _ -> "accepts" | None -> "raises" in
          QCheck.Test.fail_reportf "verdicts: reader %s, decode %s, oracle %s" (v read)
            (v decoded) (v oracle));
      true)

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
          QCheck_alcotest.to_alcotest prop_one_grammar;
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
