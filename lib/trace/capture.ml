module Frame = Nt_net.Frame
module Pcap = Nt_net.Pcap
module Tcp = Nt_net.Tcp_reassembly
module Rpc = Nt_rpc.Rpc_msg
module Rm = Nt_rpc.Record_mark
module Proc = Nt_nfs.Proc
module Ops = Nt_nfs.Ops
module Obs = Nt_obs.Obs

type stats = {
  frames : int;
  undecodable_frames : int;
  corrupt_frames : int;
  rpc_messages : int;
  rpc_errors : int;
  non_nfs : int;
  calls : int;
  replies : int;
  duplicate_calls : int;
  duplicate_replies : int;
  orphan_replies : int;
  lost_replies : int;
  tcp_gaps : int;
  salvaged_records : int;
  skipped_pcap_bytes : int;
  truncated_pcap_tails : int;
}

let stats_to_string s =
  Printf.sprintf
    "frames=%d undecodable=%d corrupt=%d rpc=%d rpc_errors=%d non_nfs=%d calls=%d replies=%d \
     dup_calls=%d dup_replies=%d orphan_replies=%d lost_replies=%d tcp_gaps=%d salvaged=%d \
     skipped_bytes=%d truncated_tails=%d"
    s.frames s.undecodable_frames s.corrupt_frames s.rpc_messages s.rpc_errors s.non_nfs s.calls
    s.replies s.duplicate_calls s.duplicate_replies s.orphan_replies s.lost_replies s.tcp_gaps
    s.salvaged_records s.skipped_pcap_bytes s.truncated_pcap_tails

type pending = {
  p_time : float;
  p_client : Nt_net.Ip_addr.t;
  p_server : Nt_net.Ip_addr.t;
  p_version : int;
  p_proc : Proc.t;
  p_uid : int;
  p_gid : int;
  p_call : Ops.call;
}

(* Calls are keyed by (client ip, xid): xids are per-client counters, so
   this pair is unique among outstanding requests. *)
module Key = struct
  type t = int * int

  let equal (a1, a2) (b1, b2) = a1 = b1 && a2 = b2
  let hash = Hashtbl.hash
end

module Pending_tbl = Hashtbl.Make (Key)

(* One RPC record-marking reassembler per TCP flow. *)
module Flow_tbl = Hashtbl.Make (struct
  type t = Tcp.flow

  let equal (a : Tcp.flow) (b : Tcp.flow) =
    a.src_ip = b.src_ip && a.src_port = b.src_port && a.dst_ip = b.dst_ip
    && a.dst_port = b.dst_port

  let hash = Hashtbl.hash
end)

type t = {
  pending : pending Pending_tbl.t;
  (* Recently answered (client, xid) pairs, so a retransmitted reply —
     or a retransmitted call whose reply already went by — is counted
     as a duplicate instead of an orphan or a fresh call. *)
  answered : float Pending_tbl.t;
  tcp : Tcp.t;
  rm : Rm.reassembler Flow_tbl.t;
  emit : Record.t -> unit;
  buffer : Record.t list ref option;
  pending_timeout : float;
  mutable last_sweep : float;
  (* Decode accounting lives on the obs registry (capture.* namespace,
     decode failures as one labeled counter); [finish] reads the
     counters back into [stats]. The pcap-salvage trio stays as plain
     ints aggregated from [Pcap.read_stats] — the reader registers
     those counters itself, so a registry shared with the reader (the
     normal wiring) is not double-counted. *)
  c_frames : Obs.counter;
  c_undecodable : Obs.counter;
  c_corrupt : Obs.counter;
  c_rpc_messages : Obs.counter;
  c_rpc_errors : Obs.counter;
  c_non_nfs : Obs.counter;
  c_calls : Obs.counter;
  c_replies : Obs.counter;
  c_duplicate_calls : Obs.counter;
  c_duplicate_replies : Obs.counter;
  c_orphan_replies : Obs.counter;
  c_lost_replies : Obs.counter;
  c_tcp_gaps : Obs.counter;
  mutable salvaged_records : int;
  mutable skipped_pcap_bytes : int;
  mutable truncated_pcap_tails : int;
}

let create ?obs ?(pending_timeout = 60.) ?emit () =
  let obs = match obs with Some o -> o | None -> Obs.create () in
  let buffer, emit =
    match emit with
    | Some f -> (None, f)
    | None ->
        let buf = ref [] in
        (Some buf, fun r -> buf := r :: !buf)
  in
  let fail reason =
    Obs.counter obs ~labels:[ ("reason", reason) ] ~help:"frames/messages that failed to decode"
      "capture.decode_failure"
  in
  {
    pending = Pending_tbl.create 4096;
    answered = Pending_tbl.create 4096;
    tcp = Tcp.create ();
    rm = Flow_tbl.create 64;
    emit;
    buffer;
    pending_timeout;
    last_sweep = 0.;
    c_frames = Obs.counter obs ~help:"link frames presented" "capture.frames";
    c_undecodable = fail "undecodable-frame";
    c_corrupt = fail "corrupt-frame";
    c_rpc_messages = Obs.counter obs ~help:"complete RPC messages seen" "capture.rpc_messages";
    c_rpc_errors = fail "rpc-error";
    c_non_nfs = fail "non-nfs";
    c_calls = Obs.counter obs ~help:"distinct NFS calls decoded" "capture.calls";
    c_replies = Obs.counter obs ~help:"replies paired with their call" "capture.replies";
    c_duplicate_calls = Obs.counter obs ~help:"retransmitted calls" "capture.duplicate_calls";
    c_duplicate_replies =
      Obs.counter obs ~help:"retransmitted replies" "capture.duplicate_replies";
    c_orphan_replies =
      Obs.counter obs ~help:"replies whose call was never seen" "capture.orphan_replies";
    c_lost_replies =
      Obs.counter obs ~help:"calls whose reply never arrived" "capture.lost_replies";
    c_tcp_gaps = Obs.counter obs ~help:"TCP stream resynchronisations" "capture.tcp_gaps";
    salvaged_records = 0;
    skipped_pcap_bytes = 0;
    truncated_pcap_tails = 0;
  }

let lost_record (p : pending) =
  {
    Record.time = p.p_time;
    reply_time = None;
    client = p.p_client;
    server = p.p_server;
    version = p.p_version;
    xid = 0;
    uid = p.p_uid;
    gid = p.p_gid;
    call = p.p_call;
    result = None;
  }

let flush_expired t ~now =
  if now -. t.last_sweep >= t.pending_timeout /. 2. then begin
    t.last_sweep <- now;
    let expired =
      Pending_tbl.fold
        (fun key p acc -> if now -. p.p_time > t.pending_timeout then (key, p) :: acc else acc)
        t.pending []
    in
    List.iter
      (fun ((client, xid), p) ->
        Pending_tbl.remove t.pending (client, xid);
        Obs.inc t.c_lost_replies;
        t.emit { (lost_record p) with xid })
      expired;
    let stale =
      Pending_tbl.fold
        (fun key at acc -> if now -. at > t.pending_timeout then key :: acc else acc)
        t.answered []
    in
    List.iter (Pending_tbl.remove t.answered) stale
  end
[@@nt.alloc_ok
  "sweeps at most once per half pending_timeout of trace time; the expired lists are built only \
   then, never per packet"]

let creds = function
  | Rpc.Auth_unix { uid; gid; _ } -> (uid, gid)
  | Rpc.Auth_null | Rpc.Auth_other _ -> (0, 0)

(* The body runs from [body_pos] to the end of the message in [buf]. *)
let decode_call_body ~version ~proc buf ~body_pos ~stop =
  let d = Nt_xdr.Decode.of_string ~pos:body_pos ~len:(stop - body_pos) buf in
  if version = 2 then Nt_nfs.V2.decode_call ~proc d else Nt_nfs.V3.decode_call ~proc d

let decode_result_body ~version ~proc buf ~body_pos ~stop =
  let d = Nt_xdr.Decode.of_string ~pos:body_pos ~len:(stop - body_pos) buf in
  if version = 2 then Nt_nfs.V2.decode_result ~proc d else Nt_nfs.V3.decode_result ~proc d

(* Handle one complete RPC message, [buf.[off .. off+len-1]], travelling
   from [src] to [dst]. *)
let dispatch_rpc t ~time ~src ~dst buf off len =
  Obs.inc t.c_rpc_messages;
  let stop = off + len in
  match Rpc.decode buf ~pos:off ~len with
  | exception Nt_xdr.Decode.Error _ -> Obs.inc t.c_rpc_errors
  | Rpc.Call c, body_pos ->
      if c.prog <> Rpc.nfs_program then Obs.inc t.c_non_nfs
      else if c.vers <> 2 && c.vers <> 3 then
        (* A version field NFS never used (a damaged header): there is no
           codec to trust with the body, and no trace line to write. *)
        Obs.inc t.c_rpc_errors
      else if Pending_tbl.mem t.pending (src, c.xid) || Pending_tbl.mem t.answered (src, c.xid)
      then
        (* A UDP client retransmitted an unanswered (or just-answered)
           call; the first arrival defines the record's call time. *)
        Obs.inc t.c_duplicate_calls
      else begin
        match Proc.of_number ~version:c.vers c.proc with
        | None -> Obs.inc t.c_rpc_errors
        | Some proc -> (
            match decode_call_body ~version:c.vers ~proc buf ~body_pos ~stop with
            | exception Nt_xdr.Decode.Error _ -> Obs.inc t.c_rpc_errors
            | exception Nt_nfs.V2.Unsupported _ -> Obs.inc t.c_rpc_errors
            | exception Nt_nfs.V3.Unsupported _ -> Obs.inc t.c_rpc_errors
            | call ->
                Obs.inc t.c_calls;
                let uid, gid = creds c.cred in
                Pending_tbl.replace t.pending (src, c.xid)
                  {
                    p_time = time;
                    p_client = src;
                    p_server = dst;
                    p_version = c.vers;
                    p_proc = proc;
                    p_uid = uid;
                    p_gid = gid;
                    p_call = call;
                  };
                flush_expired t ~now:time)
      end
  | Rpc.Reply r, body_pos -> (
      (* The reply travels server->client, so the pending key uses dst. *)
      match Pending_tbl.find_opt t.pending (dst, r.xid) with
      | None ->
          if Pending_tbl.mem t.answered (dst, r.xid) then
            Obs.inc t.c_duplicate_replies
          else Obs.inc t.c_orphan_replies
      | Some p ->
          Pending_tbl.remove t.pending (dst, r.xid);
          Pending_tbl.replace t.answered (dst, r.xid) time;
          let result =
            match r.status with
            | Rpc.Accepted Rpc.Success -> (
                match
                  decode_result_body ~version:p.p_version ~proc:p.p_proc buf ~body_pos ~stop
                with
                | exception Nt_xdr.Decode.Error _ ->
                    Obs.inc t.c_rpc_errors;
                    None
                | exception Nt_nfs.V2.Unsupported _ ->
                    Obs.inc t.c_rpc_errors;
                    None
                | exception Nt_nfs.V3.Unsupported _ ->
                    Obs.inc t.c_rpc_errors;
                    None
                | res -> Some res)
            | Rpc.Accepted _ | Rpc.Denied _ -> Some (Error Nt_nfs.Types.Err_serverfault)
          in
          Obs.inc t.c_replies;
          t.emit
            {
              Record.time = p.p_time;
              reply_time = Some time;
              client = p.p_client;
              server = p.p_server;
              version = p.p_version;
              xid = r.xid;
              uid = p.p_uid;
              gid = p.p_gid;
              call = p.p_call;
              result;
            })

(* The "Never raises" contract of feed_packet: decoders signal malformed
   input with their own exceptions, but hostile bytes could in principle
   reach a stdlib primitive first. Anything escaping here is an input
   problem, not a caller problem, so it lands in rpc_errors. *)
let handle_rpc t ~time ~src ~dst buf off len =
  match dispatch_rpc t ~time ~src ~dst buf off len with
  | () -> ()
  | exception (Nt_xdr.Decode.Error _ | Invalid_argument _ | Failure _ | Not_found) ->
      Obs.inc t.c_rpc_errors

let rm_for t flow =
  match Flow_tbl.find_opt t.rm flow with
  | Some rm -> rm
  | None ->
      let rm = Rm.create_reassembler () in
      Flow_tbl.add t.rm flow rm;
      rm

(* What a TCP segment's stream callbacks need to know about it. *)
type segment = {
  cap : t;
  time : float;
  src : Nt_net.Ip_addr.t;
  dst : Nt_net.Ip_addr.t;
  rm : Rm.reassembler;
}

let on_record sg buf off len =
  handle_rpc sg.cap ~time:sg.time ~src:sg.src ~dst:sg.dst buf off len

let on_stream sg buf off len = Rm.push_slice sg.rm buf ~off ~len on_record sg

let on_gap sg _lost =
  Obs.inc sg.cap.c_tcp_gaps;
  (* The stream resynchronised past a hole; any partial RPC record is
     unrecoverable. Start clean. *)
  Rm.reset sg.rm

let feed_slice t ~time buf ~off ~len =
  Obs.inc t.c_frames;
  match Frame.decode_slice buf ~off ~len with
  | Error _ -> Obs.inc t.c_undecodable
  | Ok h when not h.checksum_ok ->
      (* Structurally sound but damaged in flight: never trust it. *)
      Obs.inc t.c_corrupt
  | Ok h ->
      if not h.is_tcp then
        if h.payload_len >= 16 then
          handle_rpc t ~time ~src:h.ip_src ~dst:h.ip_dst buf h.payload_off h.payload_len
        else Obs.inc t.c_undecodable
      else
        let flow =
          { Tcp.src_ip = h.ip_src; src_port = h.sport; dst_ip = h.ip_dst; dst_port = h.dport }
        in
        let sg = { cap = t; time; src = h.ip_src; dst = h.ip_dst; rm = rm_for t flow } in
        Tcp.push_slice t.tcp flow ~seq:h.tcp_seq ~syn:h.tcp_syn buf ~off:h.payload_off
          ~len:h.payload_len ~data:on_stream ~gap:on_gap sg

let feed_packet t ~time data = feed_slice t ~time data ~off:0 ~len:(String.length data)

let feed_pcap t reader =
  let rec loop () =
    match Pcap.read_slice reader with
    | Some p ->
        feed_slice t ~time:p.time p.buf ~off:p.off ~len:p.len;
        loop ()
    | None -> ()
  in
  loop ();
  let rs = Pcap.read_stats reader in
  t.salvaged_records <- t.salvaged_records + rs.salvaged;
  t.skipped_pcap_bytes <- t.skipped_pcap_bytes + rs.skipped_bytes;
  if rs.truncated_tail then t.truncated_pcap_tails <- t.truncated_pcap_tails + 1
[@@nt.raise_ok
  "propagates the reader's own Sys_error/Bad_format by contract: a caller-supplied pcap that \
   cannot be read is the caller's error to handle, not something to swallow mid-trace"]

let stats t =
  {
    frames = Obs.value t.c_frames;
    undecodable_frames = Obs.value t.c_undecodable;
    corrupt_frames = Obs.value t.c_corrupt;
    rpc_messages = Obs.value t.c_rpc_messages;
    rpc_errors = Obs.value t.c_rpc_errors;
    non_nfs = Obs.value t.c_non_nfs;
    calls = Obs.value t.c_calls;
    replies = Obs.value t.c_replies;
    duplicate_calls = Obs.value t.c_duplicate_calls;
    duplicate_replies = Obs.value t.c_duplicate_replies;
    orphan_replies = Obs.value t.c_orphan_replies;
    lost_replies = Obs.value t.c_lost_replies;
    tcp_gaps = Tcp.gaps t.tcp;
    salvaged_records = t.salvaged_records;
    skipped_pcap_bytes = t.skipped_pcap_bytes;
    truncated_pcap_tails = t.truncated_pcap_tails;
  }

let finish t =
  (* Whatever is still pending never got a reply. *)
  Pending_tbl.iter
    (fun (_, xid) p ->
      Obs.inc t.c_lost_replies;
      t.emit { (lost_record p) with xid })
    t.pending;
  Pending_tbl.reset t.pending;
  Pending_tbl.reset t.answered;
  let stats = stats t in
  let records =
    match t.buffer with
    | None -> []
    | Some buf ->
        List.sort (fun (a : Record.t) (b : Record.t) -> Float.compare a.time b.time) !buf
  in
  (stats, records)
