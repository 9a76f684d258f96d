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
  p_xid : int;
  p_version : int;
  p_proc : Proc.t;
  p_uid : int;
  p_gid : int;
  p_call : Ops.call;
}

(* Calls are keyed by (client ip, xid): xids are per-client counters, so
   this pair is unique among outstanding requests. The key is one int,
   the client's dense number in the high bits and the 32-bit xid in the
   low ones, hashed by a multiply: nothing is allocated to look a call
   up. *)
module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash k =
    let h = k * 0x9E3779B97F4A7C1 in
    h lxor (h lsr 32)
end)

let key client xid = (client lsl 32) lor xid

type t = {
  clients : int Int_tbl.t;  (* client ip -> dense number *)
  pending : pending Int_tbl.t;
  (* Recently answered (client, xid) pairs, so a retransmitted reply —
     or a retransmitted call whose reply already went by — is counted
     as a duplicate instead of an orphan or a fresh call. *)
  answered : float Int_tbl.t;
  tcp : Tcp.t;
  mutable rms : Rm.reassembler option array;  (* by Tcp.stream_id *)
  emit : Record.t -> unit;
  buffer : Record.t list ref option;
  mutable last_sweep : float;
  (* Per-frame scratch, overwritten by every frame: the parsed frame,
     the one XDR decoder for RPC headers and NFS bodies, the RPC
     header, and the TCP segment the stream callbacks belong to. *)
  frame : Frame.scratch;
  dec : Nt_xdr.Decode.t;
  rpc : Rpc.header;
  mutable seg_time : float;
  mutable seg_rm : Rm.reassembler;
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

let lost_reply_timeout = 60.

let create ?obs ?emit () =
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
    clients = Int_tbl.create 64;
    pending = Int_tbl.create 4096;
    answered = Int_tbl.create 4096;
    tcp = Tcp.create ();
    rms = Array.make 16 None;
    emit;
    buffer;
    last_sweep = 0.;
    frame = Frame.scratch ();
    dec = Nt_xdr.Decode.empty ();
    rpc = Rpc.create_header ();
    seg_time = 0.;
    seg_rm = Rm.create_reassembler ();
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

(* The client's dense number, assigned at its first call; -1 for a
   client that never made one, whose keys are negative and match
   nothing. *)
let client_id t ip = match Int_tbl.find t.clients ip with id -> id | exception Not_found -> -1

let new_client_id t ip =
  match Int_tbl.find t.clients ip with
  | id -> id
  | exception Not_found ->
      let id = Int_tbl.length t.clients in
      Int_tbl.add t.clients ip id;
      id

(* Unanswered calls leave in a defined order: call time, then client,
   then xid. *)
let call_order (a : pending) (b : pending) =
  match Float.compare a.p_time b.p_time with
  | 0 -> (
      match Int.compare a.p_client b.p_client with 0 -> Int.compare a.p_xid b.p_xid | c -> c)
  | c -> c

let lost_record (p : pending) =
  {
    Record.time = p.p_time;
    reply_time = None;
    client = p.p_client;
    server = p.p_server;
    version = p.p_version;
    xid = p.p_xid;
    uid = p.p_uid;
    gid = p.p_gid;
    call = p.p_call;
    result = None;
  }

let emit_lost t calls =
  List.iter
    (fun p ->
      Obs.inc t.c_lost_replies;
      t.emit (lost_record p))
    (List.sort call_order calls)
[@@nt.alloc_ok "runs once per pending-table sweep and at finish, never per packet"]

let flush_expired t ~now =
  if now -. t.last_sweep >= lost_reply_timeout /. 2. then begin
    t.last_sweep <- now;
    let expired =
      Int_tbl.fold
        (fun key p acc -> if now -. p.p_time > lost_reply_timeout then (key, p) :: acc else acc)
        t.pending []
    in
    List.iter (fun (key, _) -> Int_tbl.remove t.pending key) expired;
    emit_lost t (List.map snd expired);
    let stale =
      Int_tbl.fold
        (fun key at acc -> if now -. at > lost_reply_timeout then key :: acc else acc)
        t.answered []
    in
    List.iter (Int_tbl.remove t.answered) stale
  end
[@@nt.alloc_ok
  "sweeps at most once per half lost_reply_timeout of trace time; the expired lists are built only \
   then, never per packet"]

(* The body runs from the decoder's cursor to the end of the message. *)
let decode_call_body ~version ~proc d =
  if version = 2 then Nt_nfs.V2.decode_call ~proc d else Nt_nfs.V3.decode_call ~proc d

let decode_result_body ~version ~proc d =
  if version = 2 then Nt_nfs.V2.decode_result ~proc d else Nt_nfs.V3.decode_result ~proc d

(* A call travelling from [src] to [dst], its header in [t.rpc]. *)
let on_call t ~time ~src ~dst =
  let h = t.rpc in
  if h.prog <> Rpc.nfs_program then Obs.inc t.c_non_nfs
  else if h.vers <> 2 && h.vers <> 3 then
    (* A version field NFS never used (a damaged header): there is no
       codec to trust with the body, and no trace line to write. *)
    Obs.inc t.c_rpc_errors
  else begin
    let k = key (new_client_id t src) h.xid in
    if Int_tbl.mem t.pending k || Int_tbl.mem t.answered k then
      (* A UDP client retransmitted an unanswered (or just-answered)
         call; the first arrival defines the record's call time. *)
      Obs.inc t.c_duplicate_calls
    else
      match Proc.of_number ~version:h.vers h.proc with
      | None -> Obs.inc t.c_rpc_errors
      | Some proc -> (
          match decode_call_body ~version:h.vers ~proc t.dec with
          | exception Nt_xdr.Decode.Error _ -> Obs.inc t.c_rpc_errors
          | exception Nt_nfs.V2.Unsupported _ -> Obs.inc t.c_rpc_errors
          | exception Nt_nfs.V3.Unsupported _ -> Obs.inc t.c_rpc_errors
          | call ->
              Obs.inc t.c_calls;
              Int_tbl.replace t.pending k
                {
                  p_time = time;
                  p_client = src;
                  p_server = dst;
                  p_xid = h.xid;
                  p_version = h.vers;
                  p_proc = proc;
                  p_uid = h.cred.uid;
                  p_gid = h.cred.gid;
                  p_call = call;
                };
              flush_expired t ~now:time)
  end

(* A reply travels server->client, so its call was keyed by [dst]. *)
let on_reply t ~time ~dst =
  let h = t.rpc in
  let k = key (client_id t dst) h.xid in
  match Int_tbl.find t.pending k with
  | exception Not_found ->
      if Int_tbl.mem t.answered k then Obs.inc t.c_duplicate_replies
      else Obs.inc t.c_orphan_replies
  | p ->
      Int_tbl.remove t.pending k;
      Int_tbl.replace t.answered k time;
      let result =
        if Rpc.success h then
          match decode_result_body ~version:p.p_version ~proc:p.p_proc t.dec with
          | exception Nt_xdr.Decode.Error _ ->
              Obs.inc t.c_rpc_errors;
              None
          | exception Nt_nfs.V2.Unsupported _ ->
              Obs.inc t.c_rpc_errors;
              None
          | exception Nt_nfs.V3.Unsupported _ ->
              Obs.inc t.c_rpc_errors;
              None
          | res -> Some res
        else Some (Error Nt_nfs.Types.Err_serverfault)
      in
      Obs.inc t.c_replies;
      t.emit
        {
          Record.time = p.p_time;
          reply_time = Some time;
          client = p.p_client;
          server = p.p_server;
          version = p.p_version;
          xid = h.xid;
          uid = p.p_uid;
          gid = p.p_gid;
          call = p.p_call;
          result;
        }

(* Handle one complete RPC message, [buf.[off .. off+len-1]], travelling
   from [src] to [dst]. The header is read into [t.rpc] and leaves
   [t.dec] at the body. *)
let dispatch_rpc t ~time ~src ~dst buf off len =
  Obs.inc t.c_rpc_messages;
  match
    Nt_xdr.Decode.reset t.dec buf ~pos:off ~len;
    Rpc.read_header t.rpc t.dec
  with
  | exception Nt_xdr.Decode.Error _ -> Obs.inc t.c_rpc_errors
  | () -> if t.rpc.is_call then on_call t ~time ~src ~dst else on_reply t ~time ~dst

(* The "Never raises" contract of feed_packet: decoders signal malformed
   input with their own exceptions, but hostile bytes could in principle
   reach a stdlib primitive first. Anything escaping here is an input
   problem, not a caller problem, so it lands in rpc_errors. *)
let handle_rpc t ~time ~src ~dst buf off len =
  match dispatch_rpc t ~time ~src ~dst buf off len with
  | () -> ()
  | exception (Nt_xdr.Decode.Error _ | Invalid_argument _ | Failure _ | Not_found) ->
      Obs.inc t.c_rpc_errors

(* The record-marking reassembler of TCP stream [id], made at its first
   segment. *)
let rm_for t id =
  if id >= Array.length t.rms then begin
    let grown = Array.make (2 * id) None in
    Array.blit t.rms 0 grown 0 (Array.length t.rms);
    t.rms <- grown
  end;
  match t.rms.(id) with
  | Some rm -> rm
  | None ->
      let rm = Rm.create_reassembler () in
      t.rms.(id) <- Some rm;
      rm

(* The stream callbacks read the segment's time, addresses and
   reassembler from [t.seg_time], [t.frame] and [t.seg_rm]. *)
let on_record t buf off len =
  handle_rpc t ~time:t.seg_time ~src:t.frame.ip_src ~dst:t.frame.ip_dst buf off len

let on_stream t buf off len = Rm.push_slice t.seg_rm buf ~off ~len on_record t

let on_gap t _lost =
  Obs.inc t.c_tcp_gaps;
  (* The stream resynchronised past a hole; any partial RPC record is
     unrecoverable. Start clean. *)
  Rm.reset t.seg_rm

let feed_slice t ~time buf ~off ~len =
  Obs.inc t.c_frames;
  let h = t.frame in
  match Frame.decode_into h buf ~off ~len with
  | Error _ -> Obs.inc t.c_undecodable
  | Ok () when not h.checksum_ok ->
      (* Structurally sound but damaged in flight: never trust it. *)
      Obs.inc t.c_corrupt
  | Ok () ->
      if not h.is_tcp then
        if h.payload_len >= 16 then
          handle_rpc t ~time ~src:h.ip_src ~dst:h.ip_dst buf h.payload_off h.payload_len
        else Obs.inc t.c_undecodable
      else begin
        let st =
          Tcp.stream t.tcp ~src_ip:h.ip_src ~src_port:h.sport ~dst_ip:h.ip_dst ~dst_port:h.dport
            ~seq:h.tcp_seq
        in
        t.seg_time <- time;
        t.seg_rm <- rm_for t (Tcp.stream_id st);
        Tcp.push_stream t.tcp st ~seq:h.tcp_seq ~syn:h.tcp_syn buf ~off:h.payload_off
          ~len:h.payload_len ~data:on_stream ~gap:on_gap t
      end

let feed_packet t ~time data = feed_slice t ~time data ~off:0 ~len:(String.length data)

let feed_pcap t reader =
  let r = Pcap.record reader in
  while Pcap.advance reader do
    feed_slice t ~time:r.time r.buf ~off:r.off ~len:r.len
  done;
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
  emit_lost t (Int_tbl.fold (fun _ p acc -> p :: acc) t.pending []);
  Int_tbl.reset t.pending;
  Int_tbl.reset t.answered;
  let stats = stats t in
  let records =
    match t.buffer with
    | None -> []
    | Some buf ->
        List.sort (fun (a : Record.t) (b : Record.t) -> Float.compare a.time b.time) !buf
  in
  (stats, records)
