(* Trace layer tests: record serialization, path reconstruction, the
   capture engine (over real pcap bytes) and the anonymizer. *)

module Record = Nt_trace.Record
module Capture = Nt_trace.Capture
module Anonymize = Nt_trace.Anonymize
module Ops = Nt_nfs.Ops
module Types = Nt_nfs.Types
module Fh = Nt_nfs.Fh
module Ip = Nt_net.Ip_addr
module Pcap = Nt_net.Pcap
module Packet_pipe = Nt_sim.Packet_pipe

(* Tiny wrapper so the fuzz property below can call the full pipeline
   and catch only the exceptions it is allowed to see. *)
module Pipeline_capture = struct
  let run pcap_bytes =
    let cap = Capture.create () in
    Capture.feed_pcap cap (Pcap.reader_of_string pcap_bytes);
    fst (Capture.finish cap)
end

(* Every packet left in [reader], each copied out of its buffer. *)
let packets reader = List.of_seq (Seq.of_dispenser (fun () -> Pcap.read_next reader))

(* The records of a text trace file, with the count of malformed lines. *)
let read_trace path =
  let back = ref [] in
  let rejected =
    In_channel.with_open_bin path (fun ic -> Record.iter_channel ic (fun r -> back := r :: !back))
  in
  (List.rev !back, rejected)

let dir_fh = Fh.make ~fsid:1 ~fileid:2
let file_fh = Fh.make ~fsid:1 ~fileid:3

let base_record : Record.t =
  {
    time = 1003622400.123456;
    reply_time = Some 1003622400.125;
    client = Ip.v 10 1 0 20;
    server = Ip.v 10 1 1 2;
    version = 3;
    xid = 0xABCD1234;
    uid = 1042;
    gid = 100;
    call = Ops.Read { fh = file_fh; offset = 8192L; count = 8192 };
    result = Some (Ok (Ops.R_read { attr = None; count = 8192; eof = false }));
  }

(* --- record line format --- *)

let roundtrip r =
  match Record.of_line (Record.to_line r) with
  | Ok r' -> r'
  | Error e -> Alcotest.failf "parse failed: %s on %s" e (Record.to_line r)

let test_line_roundtrip_read () =
  let r' = roundtrip base_record in
  Alcotest.(check (float 1e-5) "time") base_record.time r'.time;
  Alcotest.(check int) "xid" base_record.xid r'.xid;
  Alcotest.(check int) "uid" base_record.uid r'.uid;
  Alcotest.(check bool) "client ip" true (r'.client = base_record.client);
  Alcotest.(check (option int64)) "offset" (Some 8192L) (Record.offset r');
  Alcotest.(check (option int)) "count" (Some 8192) (Record.count r')

let test_line_roundtrip_all_procs () =
  let cases =
    [
      Ops.Null;
      Ops.Getattr file_fh;
      Ops.Setattr { fh = file_fh; attrs = { Types.empty_sattr with set_size = Some 0L } };
      Ops.Lookup { dir = dir_fh; name = "plain" };
      Ops.Access { fh = file_fh; access = 63 };
      Ops.Readlink file_fh;
      Ops.Write { fh = file_fh; offset = 0L; count = 99; stable = Types.Unstable };
      Ops.Create { dir = dir_fh; name = ".inbox.lock"; mode = 0o600; exclusive = true };
      Ops.Mkdir { dir = dir_fh; name = "d"; mode = 0o755 };
      Ops.Symlink { dir = dir_fh; name = "s"; target = "a/b" };
      Ops.Mknod { dir = dir_fh; name = "n" };
      Ops.Remove { dir = dir_fh; name = "gone" };
      Ops.Rmdir { dir = dir_fh; name = "gonedir" };
      Ops.Rename { from_dir = dir_fh; from_name = "x"; to_dir = dir_fh; to_name = "y" };
      Ops.Link { fh = file_fh; to_dir = dir_fh; to_name = "h" };
      Ops.Readdir { dir = dir_fh; cookie = 3L; count = 1024 };
      Ops.Readdirplus { dir = dir_fh; cookie = 0L; count = 2048 };
      Ops.Statfs file_fh;
      Ops.Fsinfo file_fh;
      Ops.Pathconf file_fh;
      Ops.Commit { fh = file_fh; offset = 0L; count = 8192 };
    ]
  in
  List.iter
    (fun call ->
      let r = { base_record with call; result = None; reply_time = None } in
      let r' = roundtrip r in
      Alcotest.(check bool)
        (Nt_nfs.Proc.to_string (Record.proc r) ^ " proc survives")
        true
        (Record.proc r' = Record.proc r);
      Alcotest.(check bool) "name survives" true (Record.name r' = Record.name r);
      Alcotest.(check bool) "fh survives" true
        (match (Record.fh r', Record.fh r) with
        | Some a, Some b -> Fh.equal a b
        | None, None -> true
        | _ -> false))
    cases

let test_line_escaping () =
  let nasty = "has space|pipe=eq%pct\tand tab" in
  let r = { base_record with call = Ops.Lookup { dir = dir_fh; name = nasty } } in
  let r' = roundtrip r in
  Alcotest.(check (option string)) "nasty name survives" (Some nasty) (Record.name r')

let test_line_lost_reply () =
  let r = { base_record with reply_time = None; result = None } in
  let r' = roundtrip r in
  Alcotest.(check bool) "no reply time" true (r'.reply_time = None);
  Alcotest.(check bool) "no result" true (r'.result = None);
  Alcotest.(check bool) "not ok" true (not (Record.is_ok r'))

let test_line_error_result () =
  let r = { base_record with result = Some (Error Types.Err_stale) } in
  let r' = roundtrip r in
  Alcotest.(check bool) "stale survives" true (Record.status r' = Some Types.Err_stale)

let test_line_bad_input () =
  Alcotest.(check bool) "junk rejected" true (Result.is_error (Record.of_line "not a record"));
  Alcotest.(check bool) "empty rejected" true (Result.is_error (Record.of_line ""))

(* A name whose escaped form is longer than the writer's line scratch:
   the scratch grows mid-line, the line is the %XX rendering, and lines
   written after it are unaffected. *)
let test_long_escaped_name () =
  let name = String.init 6000 (fun i -> " %|=\n\tab\001".[i mod 9]) in
  let r =
    {
      base_record with
      call = Ops.Lookup { dir = dir_fh; name };
      result = Some (Error Types.Err_noent);
    }
  in
  let escaped =
    String.concat ""
      (List.map
         (fun c ->
           if String.contains " %|=\n\t\r" c || Char.code c < 32 then
             Printf.sprintf "%%%02x" (Char.code c)
           else String.make 1 c)
         (List.of_seq (String.to_seq name)))
  in
  let expect =
    Printf.sprintf "%.6f %.6f v3 10.1.0.20 10.1.1.2 %08x 1042 100 lookup dir=%s name=%s | status=%d"
      base_record.time 1003622400.125 base_record.xid (Fh.to_hex_full dir_fh) escaped
      (Types.nfsstat_to_int Types.Err_noent)
  in
  let short = Record.to_line base_record in
  Alcotest.(check string) "to_line" expect (Record.to_line r);
  let b = Buffer.create 16 in
  Buffer.add_string b "prefix|";
  Record.add_line b r;
  Record.add_line b base_record;
  Record.add_line b r;
  Alcotest.(check string) "add_line appends" ("prefix|" ^ expect ^ short ^ expect) (Buffer.contents b);
  Alcotest.(check string) "a short line after it" short (Record.to_line base_record);
  match Record.of_line expect with
  | Ok r' -> Alcotest.(check bool) "reads back" true (compare r r' = 0)
  | Error e -> Alcotest.failf "rejected: %s" e

let test_io_bytes () =
  Alcotest.(check int) "read bytes from reply" 8192 (Record.io_bytes base_record);
  let lost = { base_record with result = None } in
  Alcotest.(check int) "falls back to call count" 8192 (Record.io_bytes lost);
  let failed = { base_record with result = Some (Error Types.Err_io) } in
  Alcotest.(check int) "failed IO moves nothing" 0 (Record.io_bytes failed)

let test_channel_roundtrip () =
  let path = Filename.temp_file "nt_trace" ".trace" in
  let records = List.init 20 (fun i -> { base_record with xid = i }) in
  let oc = open_out path in
  let n = Record.write_channel oc (List.to_seq records) in
  close_out oc;
  Alcotest.(check int) "wrote all" 20 n;
  let back, _ = read_trace path in
  Sys.remove path;
  Alcotest.(check int) "read all" 20 (List.length back);
  List.iteri (fun i r -> Alcotest.(check int) "xids in order" i r.Record.xid) back

(* --- capture over real packets --- *)

let synth_records n =
  List.init n (fun i ->
      let call, result =
        if i mod 3 = 0 then
          ( Ops.Lookup { dir = dir_fh; name = Printf.sprintf "f%d" i },
            Some (Ok (Ops.R_lookup { fh = file_fh; obj = None; dir = None })) )
        else if i mod 3 = 1 then
          ( Ops.Read { fh = file_fh; offset = Int64.of_int (i * 8192); count = 8192 },
            Some (Ok (Ops.R_read { attr = None; count = 8192; eof = false })) )
        else
          ( Ops.Write { fh = file_fh; offset = 0L; count = 100; stable = Types.File_sync },
            Some (Ok (Ops.R_write { count = 100; committed = Types.File_sync; attr = None })) )
      in
      {
        base_record with
        time = 1000. +. float_of_int i;
        reply_time = Some (1000.4 +. float_of_int i);
        xid = 7000 + i;
        call;
        result;
      })

let capture_through ~transport records =
  let buf = Buffer.create 65536 in
  let writer = Pcap.writer_to_buffer buf in
  let pipe = Packet_pipe.create ~transport ~writer () in
  List.iter (Packet_pipe.push pipe) records;
  Packet_pipe.finish pipe;
  let cap = Capture.create () in
  Capture.feed_pcap cap (Pcap.reader_of_string (Buffer.contents buf));
  Capture.finish cap

let check_recovered records recovered =
  Alcotest.(check int) "all records recovered" (List.length records) (List.length recovered);
  List.iter2
    (fun (orig : Record.t) (got : Record.t) ->
      Alcotest.(check bool) "proc" true (Record.proc got = Record.proc orig);
      Alcotest.(check int) "xid" orig.xid got.xid;
      Alcotest.(check int) "uid" orig.uid got.uid;
      Alcotest.(check bool) "offset" true (Record.offset got = Record.offset orig);
      Alcotest.(check bool) "has reply" true (got.result <> None))
    records recovered

let test_capture_udp_roundtrip () =
  let records = synth_records 30 in
  let stats, recovered = capture_through ~transport:Packet_pipe.Udp_transport records in
  Alcotest.(check int) "calls" 30 stats.calls;
  Alcotest.(check int) "replies" 30 stats.replies;
  Alcotest.(check int) "no losses" 0 (stats.orphan_replies + stats.lost_replies);
  check_recovered records recovered

let test_capture_tcp_roundtrip () =
  let records = synth_records 30 in
  let stats, recovered = capture_through ~transport:Packet_pipe.Tcp_transport records in
  Alcotest.(check int) "calls" 30 stats.calls;
  Alcotest.(check int) "replies" 30 stats.replies;
  Alcotest.(check int) "no tcp gaps" 0 stats.tcp_gaps;
  check_recovered records recovered

let test_capture_lost_reply () =
  (* A record with no reply: the capture should flush it as lost. *)
  let records = [ { base_record with reply_time = None; result = None } ] in
  let stats, recovered = capture_through ~transport:Packet_pipe.Udp_transport records in
  Alcotest.(check int) "one lost reply" 1 stats.lost_replies;
  match recovered with
  | [ r ] -> Alcotest.(check bool) "emitted without result" true (r.result = None)
  | _ -> Alcotest.fail "expected one record"

let test_capture_orphan_reply () =
  (* Build a pcap, then drop the first (call) packet before feeding. *)
  let records = [ List.hd (synth_records 1) ] in
  let buf = Buffer.create 4096 in
  let writer = Pcap.writer_to_buffer buf in
  let pipe = Packet_pipe.create ~transport:Packet_pipe.Udp_transport ~writer () in
  List.iter (Packet_pipe.push pipe) records;
  Packet_pipe.finish pipe;
  let reader = Pcap.reader_of_string (Buffer.contents buf) in
  let cap = Capture.create () in
  (match Pcap.read_next reader with Some _ -> () | None -> Alcotest.fail "missing call packet");
  List.iter (fun (p : Pcap.packet) -> Capture.feed_packet cap ~time:p.time p.data)
    (packets reader);
  let stats, recovered = Capture.finish cap in
  Alcotest.(check int) "orphan reply counted" 1 stats.orphan_replies;
  Alcotest.(check int) "nothing decodable" 0 (List.length recovered)

let test_capture_garbage_frame () =
  let cap = Capture.create () in
  Capture.feed_packet cap ~time:1. "garbage bytes that are not a frame";
  let stats, _ = Capture.finish cap in
  Alcotest.(check int) "undecodable counted" 1 stats.undecodable_frames

let test_capture_duplicate_call_reply () =
  (* UDP retransmissions: the same call and the same reply each arrive
     twice. The capture must count the extras, not double-emit. *)
  let records = [ List.hd (synth_records 1) ] in
  let buf = Buffer.create 4096 in
  let writer = Pcap.writer_to_buffer buf in
  let pipe = Packet_pipe.create ~transport:Packet_pipe.Udp_transport ~writer () in
  List.iter (Packet_pipe.push pipe) records;
  Packet_pipe.finish pipe;
  let reader = Pcap.reader_of_string (Buffer.contents buf) in
  let packets = packets reader in
  let call, reply =
    match packets with [ c; r ] -> (c, r) | _ -> Alcotest.fail "expected call+reply packets"
  in
  let cap = Capture.create () in
  Capture.feed_packet cap ~time:call.Pcap.time call.Pcap.data;
  Capture.feed_packet cap ~time:(call.Pcap.time +. 0.01) call.Pcap.data;
  Capture.feed_packet cap ~time:reply.Pcap.time reply.Pcap.data;
  Capture.feed_packet cap ~time:(reply.Pcap.time +. 0.01) reply.Pcap.data;
  let stats, recovered = Capture.finish cap in
  Alcotest.(check int) "one call" 1 stats.calls;
  Alcotest.(check int) "one duplicate call" 1 stats.duplicate_calls;
  Alcotest.(check int) "one reply" 1 stats.replies;
  Alcotest.(check int) "one duplicate reply" 1 stats.duplicate_replies;
  Alcotest.(check int) "no orphans" 0 stats.orphan_replies;
  Alcotest.(check int) "emitted once" 1 (List.length recovered);
  match recovered with
  | [ r ] -> Alcotest.(check bool) "with its reply" true (r.Record.result <> None)
  | _ -> ()

let test_capture_fuzz_10k () =
  (* The "never raises" contract, exercised at volume: 5000 seeded
     random frames plus 5000 bit-flipped copies of a real NFS frame,
     all through one capture. Every frame must land in the stats. *)
  let module Prng = Nt_util.Prng in
  let rng = Prng.create 0xF022_2003L in
  let records = [ List.hd (synth_records 1) ] in
  let buf = Buffer.create 4096 in
  let writer = Pcap.writer_to_buffer buf in
  let pipe = Packet_pipe.create ~transport:Packet_pipe.Udp_transport ~writer () in
  List.iter (Packet_pipe.push pipe) records;
  Packet_pipe.finish pipe;
  let real_frame =
    match packets (Pcap.reader_of_string (Buffer.contents buf)) with
    | c :: _ -> c.Pcap.data
    | [] -> Alcotest.fail "no frame"
  in
  let cap = Capture.create () in
  for i = 0 to 4999 do
    let len = Prng.int rng 300 in
    let junk = String.init len (fun _ -> Char.chr (Prng.int rng 256)) in
    Capture.feed_packet cap ~time:(float_of_int i *. 0.001) junk
  done;
  for i = 0 to 4999 do
    let b = Bytes.of_string real_frame in
    let flips = 1 + Prng.int rng 3 in
    for _ = 1 to flips do
      let pos = Prng.int rng (Bytes.length b) in
      let mask = 1 + Prng.int rng 255 in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor mask))
    done;
    Capture.feed_packet cap ~time:(10. +. (float_of_int i *. 0.001)) (Bytes.to_string b)
  done;
  let stats, _ = Capture.finish cap in
  Alcotest.(check int) "all frames presented" 10_000 stats.frames;
  Alcotest.(check bool) "counters within frame total" true
    (stats.undecodable_frames + stats.corrupt_frames <= stats.frames);
  Alcotest.(check bool) "junk mostly rejected" true (stats.undecodable_frames >= 4999);
  Alcotest.(check bool) "flipped frames detected" true
    (stats.corrupt_frames > 0 && stats.rpc_errors >= 0)

(* --- degraded-vs-clean differential runs --- *)

module Pipeline = Nt_core.Pipeline
module Fault = Nt_sim.Fault

let degraded ?mangle_flips ~plan n =
  Pipeline.run_degraded ?mangle_flips ~transport:Packet_pipe.Udp_transport ~plan
    (synth_records n)

let test_degraded_duplicates_conserved () =
  (* Duplication only: every injected duplicate is recognised as a
     retransmitted call or reply, and no record is emitted twice. *)
  let plan = { Fault.none with duplicate = 0.05; duplicate_delay = 0.005 } in
  let d = degraded ~plan 400 in
  Alcotest.(check bool) "duplicates injected" true (d.faults.duplicated > 0);
  Alcotest.(check int) "injected = counted"
    d.faults.duplicated
    (d.degraded.duplicate_calls + d.degraded.duplicate_replies);
  Alcotest.(check int) "every emission captured" d.faults.emitted d.degraded.frames;
  Alcotest.(check int) "no double emission"
    (List.length d.clean_records) (List.length d.degraded_records);
  Alcotest.(check int) "same calls" d.clean.calls d.degraded.calls

let test_degraded_corrupt_truncate_conserved () =
  (* Address-only single-byte corruption always breaks the IPv4 header
     checksum; 30-byte truncation always cuts inside the IP header. So
     each injected fault lands in exactly one capture counter. *)
  let plan =
    {
      Fault.none with
      corrupt = 0.03;
      corrupt_bytes = 1;
      corrupt_addrs_only = true;
      truncate = 0.02;
      truncate_to = 30;
    }
  in
  let d = degraded ~plan 400 in
  Alcotest.(check bool) "corruptions injected" true (d.faults.corrupted > 0);
  Alcotest.(check bool) "truncations injected" true (d.faults.truncated > 0);
  Alcotest.(check int) "corrupted = checksum failures" d.faults.corrupted
    d.degraded.corrupt_frames;
  Alcotest.(check int) "truncated = undecodable" d.faults.truncated
    d.degraded.undecodable_frames;
  Alcotest.(check int) "every emission captured" d.faults.emitted d.degraded.frames;
  Alcotest.(check int) "clean run unaffected" 0
    (d.clean.corrupt_frames + d.clean.undecodable_frames)

let test_degraded_acceptance_burst () =
  (* The acceptance scenario: burst loss + corruption + duplication +
     truncation together. Decoding completes without exception and the
     conservation invariants hold. *)
  let plan =
    {
      Fault.none with
      drop = Fault.Gilbert_elliott { p_gb = 0.02; p_bg = 0.3; loss_good = 0.002; loss_bad = 0.4 };
      corrupt = 0.02;
      corrupt_bytes = 1;
      corrupt_addrs_only = true;
      truncate = 0.01;
      truncate_to = 30;
      duplicate = 0.02;
      duplicate_delay = 0.005;
    }
  in
  let d = degraded ~plan 600 in
  let f = d.faults in
  Alcotest.(check bool) "all fault classes fired" true
    (f.dropped > 0 && f.corrupted > 0 && f.truncated > 0 && f.duplicated > 0);
  Alcotest.(check int) "injector conservation" (f.presented - f.dropped + f.duplicated)
    f.emitted;
  Alcotest.(check int) "every emission captured" f.emitted d.degraded.frames;
  Alcotest.(check int) "corrupted = checksum failures" f.corrupted d.degraded.corrupt_frames;
  Alcotest.(check int) "truncated = undecodable" f.truncated d.degraded.undecodable_frames;
  (* A duplicate whose counterpart was dropped or corrupted surfaces as
     an orphan instead, so the duplicate counters are bounded, not
     exactly equal, once drops are in play. *)
  Alcotest.(check bool) "duplicates bounded by injection" true
    (d.degraded.duplicate_calls + d.degraded.duplicate_replies <= f.duplicated);
  Alcotest.(check bool) "clean baseline intact" true
    (d.clean.calls = 600 && d.clean.replies = 600 && d.clean.frames = f.presented)

let test_degraded_salvage_mangled_pcap () =
  (* Savefile-level damage on top of packet faults: 200 byte flips in
     the pcap stream itself. The salvage reader must absorb them and
     still recover most of the trace. *)
  let plan = { Fault.none with duplicate = 0.01; duplicate_delay = 0.005 } in
  let d = degraded ~mangle_flips:200 ~plan 400 in
  Alcotest.(check bool) "decoding survives" true (d.degraded.frames > 0);
  Alcotest.(check bool) "damage visible in stats" true
    (d.degraded.skipped_pcap_bytes > 0 || d.degraded.corrupt_frames > 0
    || d.degraded.rpc_errors > 0 || d.degraded.undecodable_frames > 0);
  let clean_n = List.length d.clean_records in
  let degraded_n = List.length d.degraded_records in
  Alcotest.(check bool) "most records recovered" true
    (float_of_int degraded_n >= 0.5 *. float_of_int clean_n)

let test_degraded_drift_bounded () =
  (* §4.1.4-style question: does ~2% bursty capture loss distort the
     analysis? The op mix of the degraded trace must track the clean
     one within 10% relative, with >=90% of records recovered. *)
  let plan =
    {
      Fault.none with
      drop = Fault.Gilbert_elliott { p_gb = 0.02; p_bg = 0.3; loss_good = 0.002; loss_bad = 0.4 };
    }
  in
  let d = degraded ~plan 900 in
  let clean_n = List.length d.clean_records in
  let degraded_n = List.length d.degraded_records in
  Alcotest.(check bool) "at least 90% of records survive" true
    (float_of_int degraded_n >= 0.9 *. float_of_int clean_n);
  let mix records =
    let total = float_of_int (List.length records) in
    let frac proc =
      float_of_int (List.length (List.filter (fun r -> Record.proc r = proc) records))
      /. total
    in
    (frac Nt_nfs.Proc.Read, frac Nt_nfs.Proc.Write, frac Nt_nfs.Proc.Lookup)
  in
  let cr, cw, cl = mix d.clean_records in
  let dr, dw, dl = mix d.degraded_records in
  let close name a b =
    Alcotest.(check bool) (name ^ " mix within 10%") true (Float.abs (a -. b) /. a < 0.10)
  in
  close "read" cr dr;
  close "write" cw dw;
  close "lookup" cl dl

(* --- the slice path: one reused read buffer against owned copies --- *)

let campus_pcap ?(fault = Fault.none) () =
  let buf = Buffer.create (1 lsl 20) in
  let start = Nt_util.Trace_week.time_of ~day:Nt_util.Trace_week.Wed ~hour:9 ~minute:0 in
  let config = { Nt_workload.Email.default_config with users = 4 } in
  let (_ : Pipeline.pcap_stats) =
    Pipeline.campus_to_pcap ~config ~fault ~start ~stop:(start +. 900.)
      ~writer:(Pcap.writer_to_buffer buf) ()
  in
  Buffer.contents buf

(* Smash the length field of every [every]-th record header. *)
let mangle_headers pcap ~every =
  let b = Bytes.of_string pcap in
  let rec go pos i =
    if pos + 16 <= Bytes.length b then begin
      let incl = Int32.to_int (Bytes.get_int32_le b (pos + 8)) in
      if i mod every = every - 1 then Bytes.set b (pos + 11) '\x7f';
      go (pos + 16 + incl) (i + 1)
    end
  in
  go 24 0;
  Bytes.to_string b

let lines records = List.map Record.to_line records

(* nfstrace's path: a channel reader refilling one buffer. *)
let via_reused_buffer ?emit ?(salvage = false) pcap =
  let path = Filename.temp_file "nt_trace_test" ".pcap" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc pcap);
      In_channel.with_open_bin path (fun ic ->
          let cap = Capture.create ?emit () in
          Capture.feed_pcap cap (Pcap.reader_of_channel ~salvage ic);
          Capture.finish cap))

let via_owned_copies ?(salvage = false) pcap =
  let reader = Pcap.reader_of_string ~salvage pcap in
  let packets = packets reader in
  let cap = Capture.create () in
  List.iter (fun (p : Pcap.packet) -> Capture.feed_packet cap ~time:p.time p.data) packets;
  let stats, records = Capture.finish cap in
  let rs = Pcap.read_stats reader in
  ( {
      stats with
      salvaged_records = rs.salvaged;
      skipped_pcap_bytes = rs.skipped_bytes;
      truncated_pcap_tails = (if rs.truncated_tail then 1 else 0);
    },
    records )

let check_slice_path ?salvage name pcap =
  let stats, records = via_reused_buffer ?salvage pcap in
  let stats', records' = via_owned_copies ?salvage pcap in
  Alcotest.(check string) (name ^ ": stats") (Capture.stats_to_string stats')
    (Capture.stats_to_string stats);
  Alcotest.(check (list string)) (name ^ ": records") (lines records') (lines records);
  (stats, records)

let test_slice_clean_tcp () =
  let stats, records = check_slice_path "clean" (campus_pcap ()) in
  Alcotest.(check bool) "records decoded" true (List.length records > 200);
  Alcotest.(check int) "every call answered" stats.calls stats.replies;
  Alcotest.(check int) "no gaps" 0 stats.tcp_gaps

let test_slice_burst () =
  let stats, _ = check_slice_path "burst" (campus_pcap ~fault:Fault.campus_burst ()) in
  Alcotest.(check bool) "loss visible" true (stats.tcp_gaps > 0 && stats.lost_replies > 0)

let test_slice_reordered () =
  (* Displaced frames arrive ahead of the segments before them, so TCP
     holds them (the copying path) until the hole fills. *)
  let plan = { Fault.none with reorder = 0.3; reorder_displace = 0.0021 } in
  let clean = campus_pcap () and reordered = campus_pcap ~fault:plan () in
  Alcotest.(check bool) "frames moved" false (String.equal clean reordered);
  let stats, records = check_slice_path "reordered" reordered in
  let clean_stats, _ = via_reused_buffer clean in
  Alcotest.(check int) "no gaps" 0 stats.tcp_gaps;
  Alcotest.(check int) "all calls recovered" clean_stats.calls (List.length records);
  Alcotest.(check int) "all replies recovered" clean_stats.replies stats.replies

let test_slice_salvage () =
  let pcap = mangle_headers (campus_pcap ()) ~every:40 in
  let stats, _ = check_slice_path ~salvage:true "salvage" pcap in
  Alcotest.(check bool) "records salvaged" true (stats.salvaged_records > 0);
  Alcotest.(check bool) "bytes skipped" true (stats.skipped_pcap_bytes > 0)

let test_buffered_records_do_not_alias () =
  (* Records buffered until [finish] were decoded from a buffer that has
     been refilled many times since; they must render as they did when
     produced. [finish] sorts newest-first emission order stably. *)
  let pcap = campus_pcap () in
  let emitted = ref [] in
  let _ = via_reused_buffer ~emit:(fun r -> emitted := (r, Record.to_line r) :: !emitted) pcap in
  let at_production =
    List.map snd
      (List.stable_sort (fun ((a : Record.t), _) (b, _) -> Float.compare a.time b.time) !emitted)
  in
  let _, buffered = via_reused_buffer pcap in
  Alcotest.(check (list string)) "same lines after finish" at_production (lines buffered)

(* --- the lossy EECS/UDP pcap --- *)

let eecs_lossy_pcap () =
  let plan =
    {
      Fault.none with
      drop = Fault.Gilbert_elliott { p_gb = 0.02; p_bg = 0.3; loss_good = 0.002; loss_bad = 0.4 };
      corrupt = 0.02;
      corrupt_bytes = 1;
      corrupt_addrs_only = true;
      duplicate = 0.02;
      duplicate_delay = 0.005;
    }
  in
  let buf = Buffer.create (1 lsl 20) in
  let start = Nt_util.Trace_week.time_of ~day:Nt_util.Trace_week.Wed ~hour:10 ~minute:0 in
  let config = { Nt_workload.Research.default_config with users = 40 } in
  let (_ : Pipeline.pcap_stats) =
    Pipeline.eecs_to_pcap ~config ~fault:plan ~start ~stop:(start +. 1800.)
      ~writer:(Pcap.writer_to_buffer buf) ()
  in
  Buffer.contents buf

(* --- the capture domain's allocation budget --- *)

(* Minor words per frame that a capture allocates on [pcap], emit a
   no-op: what is left is the records themselves (the calls, their
   handles and names, the pending-table entries) and a boxed time per
   frame, not per-frame scaffolding. *)
let words_per_frame pcap =
  let cap = Capture.create ~emit:ignore () in
  let reader = Pcap.reader_of_string pcap in
  let before = Gc.minor_words () in
  Capture.feed_pcap cap reader;
  let stats, _ = Capture.finish cap in
  (Gc.minor_words () -. before) /. float_of_int stats.frames

let clean_campus = lazy (campus_pcap ())
let lossy_eecs = lazy (eecs_lossy_pcap ())

let test_allocation_budget () =
  List.iter
    (fun (name, pcap, bound) ->
      let w = words_per_frame pcap in
      if w > bound then
        Alcotest.failf "%s: %.1f minor words per frame, over the budget of %.0f" name w bound)
    (* Measured 43.8 and 49.6; each bound is that plus 10%. *)
    [ ("clean campus tcp", Lazy.force clean_campus, 48.2);
      ("lossy eecs udp", Lazy.force lossy_eecs, 54.6) ]

(* All scratch belongs to one capture: two captures decoding at once on
   two domains give what each gives alone. *)
let test_two_captures_two_domains () =
  let decode pcap =
    let cap = Capture.create () in
    Capture.feed_pcap cap (Pcap.reader_of_string pcap);
    let stats, records = Capture.finish cap in
    Capture.stats_to_string stats :: lines records
  in
  let campus = Lazy.force clean_campus and eecs = Lazy.force lossy_eecs in
  let campus_alone = decode campus and eecs_alone = decode eecs in
  let other = Domain.spawn (fun () -> decode eecs) in
  let campus_together = decode campus in
  let eecs_together = Domain.join other in
  Alcotest.(check (list string)) "campus" campus_alone campus_together;
  Alcotest.(check (list string)) "eecs" eecs_alone eecs_together

(* --- nfstrace's two-stage decode against one domain --- *)

(* Run [f text_oc tbin_oc] on two temporary files; its result and the
   bytes it wrote to each. *)
let with_outputs f =
  let text = Filename.temp_file "nt_trace_test" ".trace" in
  let tbin = Filename.temp_file "nt_trace_test" ".ntb" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ text; tbin ])
    (fun () ->
      let v =
        Out_channel.with_open_bin text (fun oc -> Out_channel.with_open_bin tbin (f oc))
      in
      let read path = In_channel.with_open_bin path In_channel.input_all in
      (v, read text, read tbin))

(* The reference: one domain renders each record as the capture emits
   it. *)
let one_domain_decode ~salvage pcap oc toc =
  let w = Nt_tbin.Writer.create (output_string toc) in
  let emitted = ref [] in
  let emit r =
    Record.output_line oc r;
    Nt_tbin.Writer.add w r;
    emitted := r :: !emitted
  in
  let cap = Capture.create ~emit () in
  let result =
    match Capture.feed_pcap cap (Pcap.reader_of_string ~salvage pcap) with
    | () -> (fst (Capture.finish cap), None)
    | exception Pcap.Bad_format msg -> (Capture.stats cap, Some msg)
  in
  Nt_tbin.Writer.close w;
  (result, List.rev !emitted)

let two_stage_decode ~salvage pcap oc toc =
  let emitted = ref [] in
  let result =
    Pipeline.trace_pcap ~tbin:toc
      ~emit:(fun r -> emitted := r :: !emitted)
      (Pcap.reader_of_string ~salvage pcap)
      oc
  in
  (result, List.rev !emitted)

let test_two_stage_matches_one_domain () =
  let campus = campus_pcap () in
  let truncate = { Fault.none with truncate = 0.02; truncate_to = 30 } in
  let cases =
    [
      ("clean campus tcp", false, campus);
      ("lossy eecs udp", false, eecs_lossy_pcap ());
      ("campus burst", false, campus_pcap ~fault:Fault.campus_burst ());
      ("campus truncate", false, campus_pcap ~fault:truncate ());
      ("salvage", true, mangle_headers campus ~every:40);
      ("mid-capture abort", false, mangle_headers campus ~every:4000);
    ]
  in
  List.iter
    (fun (name, salvage, pcap) ->
      let ((stats, aborted), emitted), text, tbin =
        with_outputs (one_domain_decode ~salvage pcap)
      in
      let ((stats', aborted'), emitted'), text', tbin' =
        with_outputs (two_stage_decode ~salvage pcap)
      in
      Alcotest.(check bool) (name ^ ": many batches") true (List.length emitted > 1000);
      Alcotest.(check string) (name ^ ": text") text text';
      Alcotest.(check bool) (name ^ ": tbin") true (String.equal tbin tbin');
      Alcotest.(check (list string)) (name ^ ": emit order") (lines emitted) (lines emitted');
      Alcotest.(check string) (name ^ ": stats") (Capture.stats_to_string stats)
        (Capture.stats_to_string stats');
      Alcotest.(check (option string)) (name ^ ": abort") aborted aborted')
    cases

(* The process's thread count, where /proc shows it. *)
let threads () =
  try
    In_channel.with_open_text "/proc/self/status" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find_map (fun l -> Scanf.sscanf_opt l "Threads: %d" Fun.id)
  with Sys_error _ -> None

(* An exception in either stage escapes only once the render domain
   has joined, and stops the capture. *)
let test_two_stage_failures () =
  let pcap = campus_pcap () in
  let total = List.length (snd (Pipeline.capture_pcap pcap)) in
  let before = threads () in
  (* A joined domain's thread may take a moment to exit. *)
  let rec settled tries =
    threads () = before || (tries > 0 && (Unix.sleepf 0.01; settled (tries - 1)))
  in
  let closed = open_out_bin Filename.null in
  close_out closed;
  let emitted = ref 0 in
  (match
     Pipeline.trace_pcap ~emit:(fun _ -> incr emitted) (Pcap.reader_of_string pcap) closed
   with
  | _ -> Alcotest.fail "writing to a closed channel succeeded"
  | exception Sys_error _ -> ());
  (* The capture runs on for at most the batches in flight. *)
  Alcotest.(check bool) "render failure stops the capture" true (!emitted < total / 2);
  Alcotest.(check bool) "no domain left running after a render failure" true (settled 100);
  (* A capture-side exception: what was decoded before it is written. *)
  let emitted = ref 0 in
  let stop _ =
    incr emitted;
    if !emitted = 1000 then raise Exit
  in
  let (), text, _ =
    with_outputs (fun oc toc ->
        match Pipeline.trace_pcap ~tbin:toc ~emit:stop (Pcap.reader_of_string pcap) oc with
        | _ -> Alcotest.fail "the emit exception was lost"
        | exception Exit -> ())
  in
  Alcotest.(check int) "records before the exception written" 1000
    (List.length (String.split_on_char '\n' text) - 1);
  Alcotest.(check bool) "no domain left running after a capture failure" true (settled 100)

(* Calls whose replies never come leave in (call time, client, xid)
   order, both those a sweep expires and those [finish] flushes. The
   clients and xids are picked so that the pending table's own order
   is not that one. *)
let test_lost_replies_in_call_order () =
  let lost time client xid =
    { base_record with time; reply_time = None; result = None; client = Ip.v 10 1 0 client; xid }
  in
  let expired =
    [ lost 1000. 31 0x90; lost 1000. 7 0x5000; lost 1000. 7 0x12; lost 1000. 200 0x1;
      lost 999.5 31 0x7FFF0000; lost 1000.25 7 3; lost 1000. 31 0x8F ]
  in
  (* Its call, 70 s after the first, sweeps every call above out. *)
  let answered =
    { base_record with time = 1070.; reply_time = Some 1070.4; client = Ip.v 10 1 0 5; xid = 0x777 }
  in
  let pending =
    [ lost 1080. 9 0x44; lost 1080. 9 0x43; lost 1080. 2 0xFFFF; lost 1079.9 150 0x10;
      lost 1080. 150 0x2; lost 1080.5 2 0x1 ]
  in
  let buf = Buffer.create 4096 in
  let pipe =
    Packet_pipe.create ~transport:Packet_pipe.Udp_transport ~writer:(Pcap.writer_to_buffer buf) ()
  in
  List.iter (Packet_pipe.push pipe)
    (List.stable_sort
       (fun (a : Record.t) (b : Record.t) -> Float.compare a.time b.time)
       ((answered :: expired) @ pending));
  Packet_pipe.finish pipe;
  let pcap = Buffer.contents buf in
  let key (r : Record.t) = (r.time, r.client, r.xid) in
  let in_order l = List.map key (List.sort (fun a b -> compare (key a) (key b)) l) in
  let expected = in_order expired @ [ key answered ] @ in_order pending in
  let check name emitted =
    Alcotest.(check (list (triple (float 0.) int int))) name expected (List.rev_map key emitted)
  in
  let emitted = ref [] in
  let cap = Capture.create ~emit:(fun r -> emitted := r :: !emitted) () in
  Capture.feed_pcap cap (Pcap.reader_of_string pcap);
  let stats, _ = Capture.finish cap in
  Alcotest.(check int) "lost replies" (List.length expired + List.length pending)
    stats.lost_replies;
  check "Capture" !emitted;
  let emitted = ref [] in
  let null = open_out_bin Filename.null in
  let _ =
    Fun.protect
      ~finally:(fun () -> close_out null)
      (fun () ->
        Pipeline.trace_pcap ~emit:(fun r -> emitted := r :: !emitted) (Pcap.reader_of_string pcap)
          null)
  in
  check "two-stage trace_pcap" !emitted

let test_capture_unknown_version () =
  (* A call whose NFS version field says 7: counted as an RPC error and
     never written out, so its reply is an orphan. *)
  let buf = Buffer.create 4096 in
  let pipe =
    Packet_pipe.create ~transport:Packet_pipe.Udp_transport ~writer:(Pcap.writer_to_buffer buf) ()
  in
  Packet_pipe.push pipe (List.hd (synth_records 1));
  Packet_pipe.finish pipe;
  let call, reply =
    match packets (Pcap.reader_of_string (Buffer.contents buf)) with
    | [ c; r ] -> (c, r)
    | _ -> Alcotest.fail "expected call+reply packets"
  in
  let v7 = Bytes.of_string call.Pcap.data in
  (* Ethernet 14 + IPv4 20 + UDP 8, then xid, mtype, rpcvers, prog, vers. *)
  Bytes.set_int32_be v7 (42 + 16) 7l;
  let cap = Capture.create () in
  Capture.feed_packet cap ~time:call.Pcap.time (Bytes.to_string v7);
  Capture.feed_packet cap ~time:reply.Pcap.time reply.Pcap.data;
  let stats, records = Capture.finish cap in
  Alcotest.(check int) "counted as an rpc error" 1 stats.rpc_errors;
  Alcotest.(check int) "no call" 0 stats.calls;
  Alcotest.(check int) "reply orphaned" 1 stats.orphan_replies;
  Alcotest.(check int) "nothing written" 0 (List.length records)

(* --- anonymizer --- *)

let anon ?(config = Anonymize.default_config) () = Anonymize.create ~seed:9L config

let test_anon_consistent () =
  let a = anon () in
  Alcotest.(check string) "same input same output" (Anonymize.name a "thesis.tex")
    (Anonymize.name a "thesis.tex")

let test_anon_changes_names () =
  let a = anon () in
  Alcotest.(check bool) "name is anonymized" false
    (String.equal (Anonymize.name a "secret-project.txt") "secret-project.txt")

let test_anon_suffix_shared () =
  let a = anon () in
  let n1 = Anonymize.name a "alpha.c" and n2 = Anonymize.name a "beta.c" in
  let suffix s = String.sub s (String.rindex s '.') (String.length s - String.rindex s '.') in
  Alcotest.(check string) "shared suffix" (suffix n1) (suffix n2);
  Alcotest.(check bool) "different stems" false (String.equal n1 n2)

let test_anon_special_affixes () =
  let a = anon () in
  let plain = Anonymize.name a "report" in
  Alcotest.(check string) "backup keeps ~" (plain ^ "~") (Anonymize.name a "report~");
  Alcotest.(check string) "rcs keeps ,v" (plain ^ ",v") (Anonymize.name a "report,v");
  Alcotest.(check string) "autosave keeps ##" ("#" ^ plain ^ "#") (Anonymize.name a "#report#")

let test_anon_preserved_names () =
  let a = anon () in
  List.iter
    (fun n -> Alcotest.(check string) "preserved verbatim" n (Anonymize.name a n))
    [ "CVS"; ".inbox"; ".pinerc"; "lock"; "mbox" ]

let test_anon_lock_suffix_preserved () =
  let a = anon () in
  let n = Anonymize.name a "mailbox.lock" in
  Alcotest.(check bool) "keeps .lock" true
    (String.length n > 5 && String.sub n (String.length n - 5) 5 = ".lock");
  Alcotest.(check bool) "stem anonymized" false (String.equal n "mailbox.lock")

let test_anon_dotfile_keeps_dot () =
  let a = anon () in
  let n = Anonymize.name a ".secretrc" in
  Alcotest.(check bool) "leading dot kept" true (n.[0] = '.');
  Alcotest.(check bool) "rest anonymized" false (String.equal n ".secretrc")

let test_anon_uid_gid () =
  let a = anon () in
  Alcotest.(check int) "root preserved" 0 (Anonymize.uid a 0);
  let u = Anonymize.uid a 1042 in
  Alcotest.(check bool) "uid mapped" true (u <> 1042);
  Alcotest.(check int) "uid stable" u (Anonymize.uid a 1042);
  Alcotest.(check bool) "distinct uids distinct" true (Anonymize.uid a 1043 <> u)

let test_anon_ip () =
  let a = anon () in
  let ip = Ip.v 128 103 60 15 in
  let mapped = Anonymize.ip a ip in
  Alcotest.(check bool) "ip mapped" true (mapped <> ip);
  Alcotest.(check bool) "ip stable" true (Anonymize.ip a ip = mapped)

let test_anon_seeds_differ () =
  let a = Anonymize.create ~seed:1L Anonymize.default_config in
  let b = Anonymize.create ~seed:2L Anonymize.default_config in
  Alcotest.(check bool) "different seeds, different mapping" false
    (String.equal (Anonymize.name a "projectx.dat") (Anonymize.name b "projectx.dat"))

let test_anon_record () =
  let a = anon () in
  let r = { base_record with call = Ops.Lookup { dir = dir_fh; name = "grant-proposal.doc" } } in
  let r' = Anonymize.record a r in
  Alcotest.(check bool) "uid anonymized" true (r'.uid <> r.uid);
  Alcotest.(check bool) "client anonymized" true (r'.client <> r.client);
  Alcotest.(check bool) "name anonymized" true (Record.name r' <> Record.name r);
  (* Structure preserved. *)
  Alcotest.(check bool) "proc preserved" true (Record.proc r' = Record.proc r);
  Alcotest.(check (float 0.) "time untouched") r.time r'.time

let test_anon_omit () =
  let a = anon ~config:Anonymize.omit_config () in
  Alcotest.(check string) "name dropped" "x" (Anonymize.name a "anything.txt");
  Alcotest.(check int) "uid dropped" 0 (Anonymize.uid a 1234)

let test_anon_categories_survive () =
  (* The Names analysis must still classify anonymized traces. *)
  let a = anon () in
  let check_cat name =
    let cat = Nt_analysis.Names.categorize name in
    let cat' = Nt_analysis.Names.categorize (Anonymize.name a name) in
    Alcotest.(check string)
      (name ^ " category survives anonymization")
      (Nt_analysis.Names.category_to_string cat)
      (Nt_analysis.Names.category_to_string cat')
  in
  List.iter check_cat [ ".inbox"; ".inbox.lock"; "mbox"; "draft~"; "#draft#"; "module.c,v" ]

(* --- robustness: a passive tracer must survive hostile input --- *)

let prop_capture_never_crashes_on_garbage =
  QCheck.Test.make ~name:"capture survives arbitrary frames" ~count:300
    QCheck.(string_of_size Gen.(0 -- 400))
    (fun junk ->
      let cap = Capture.create () in
      Capture.feed_packet cap ~time:1. junk;
      let stats, _ = Capture.finish cap in
      stats.frames = 1)

let prop_capture_survives_bitflips =
  QCheck.Test.make ~name:"capture survives bit-flipped real packets" ~count:200
    QCheck.(pair (int_range 0 10_000) small_int)
    (fun (pos_seed, flip) ->
      (* Take a real UDP-encoded NFS call frame and corrupt one byte. *)
      let r = List.hd (synth_records 1) in
      let buf = Buffer.create 4096 in
      let writer = Pcap.writer_to_buffer buf in
      let pipe = Packet_pipe.create ~transport:Packet_pipe.Udp_transport ~writer () in
      Packet_pipe.push pipe r;
      Packet_pipe.finish pipe;
      let pcap = Bytes.of_string (Buffer.contents buf) in
      let n = Bytes.length pcap in
      (* Corrupt only past the pcap global header so the reader itself
         stays parseable. *)
      if n > 48 then begin
        let pos = 40 + (pos_seed mod (n - 48)) in
        Bytes.set pcap pos (Char.chr (Char.code (Bytes.get pcap pos) lxor (1 + (flip mod 255))))
      end;
      match Pipeline_capture.run (Bytes.to_string pcap) with
      | exception Pcap.Bad_format _ -> true (* corrupt lengths may be detected *)
      | _stats -> true)

let prop_of_line_never_crashes =
  QCheck.Test.make ~name:"record parser is total" ~count:500
    QCheck.(string_of_size Gen.(0 -- 200))
    (fun s ->
      match Record.of_line s with Ok _ -> true | Error _ -> true)

let prop_record_line_roundtrip =
  QCheck.Test.make ~name:"record text format roundtrips" ~count:300
    QCheck.(
      quad (int_range 0 0xFFFFFF) (int_range 0 100000) (int_range 0 5_000_000)
        (string_of_size Gen.(1 -- 30)))
    (fun (xid, uid, off, name) ->
      QCheck.assume (not (String.contains name '/'));
      let r =
        {
          base_record with
          xid;
          uid;
          call =
            (if off mod 2 = 0 then Ops.Lookup { dir = dir_fh; name }
             else Ops.Read { fh = file_fh; offset = Int64.of_int off; count = 1 + (off mod 9000) });
          result = None;
          reply_time = None;
        }
      in
      match Record.of_line (Record.to_line r) with
      | Ok r' ->
          r'.xid = xid && r'.uid = uid
          && Record.name r' = Record.name r
          && Record.offset r' = Record.offset r
      | Error _ -> false)

(* --- the text grammar: parse_slice (DESIGN.md §18) --- *)

(* What the text form keeps of a record: %.6f times, 32-bit addresses,
   setattr/mtime times through string_of_float, four fattr fields, and
   only the reply fields the record's procedure reads back. *)
let canon_float f = float_of_string (Printf.sprintf "%.6f" f)
let canon_time t = Types.time_of_float (float_of_string (string_of_float (Types.time_to_float t)))

let canon_fattr (a : Types.fattr) =
  let ftype = match a.ftype with Types.Dir | Types.Lnk -> a.ftype | _ -> Types.Reg in
  { Types.default_fattr with size = a.size; fileid = a.fileid; ftype; mtime = canon_time a.mtime }

let canon_call (c : Ops.call) : Ops.call =
  match c with
  | Setattr { fh; attrs } ->
      let set_atime = Option.map canon_time attrs.set_atime in
      let set_mtime = Option.map canon_time attrs.set_mtime in
      Setattr { fh; attrs = { attrs with set_atime; set_mtime } }
  | c -> c

let canon_result (p : Nt_nfs.Proc.t) (res : Ops.result option) : Ops.result option =
  match res with
  | None -> None
  | Some (Error st) when Types.nfsstat_to_int st <> 0 -> res
  | Some r ->
      let s = match r with Ok s -> Some s | Error _ -> None in
      let attr =
        match s with
        | Some
            ( Ops.R_attr a
            | R_lookup { obj = Some a; _ }
            | R_read { attr = Some a; _ }
            | R_write { attr = Some a; _ }
            | R_create { attr = Some a; _ } ) ->
            Some (canon_fattr a)
        | _ -> None
      in
      let rfh =
        match s with
        | Some (R_lookup { fh; _ }) -> Some fh
        | Some (R_create { fh; _ }) -> fh
        | _ -> None
      in
      let count =
        match s with Some (R_read { count; _ } | R_write { count; _ }) -> count | _ -> 0
      in
      let eof = match s with Some (R_read { eof; _ } | R_readdir { eof; _ }) -> eof | _ -> false in
      let success : Ops.success =
        match (p, s) with
        | (Null | Root | Writecache), _ -> R_null
        | (Getattr | Setattr), _ -> ( match attr with Some a -> R_attr a | None -> R_empty)
        | Lookup, _ -> (
            match rfh with Some fh -> R_lookup { fh; obj = attr; dir = None } | None -> R_empty)
        | Access, Some (R_access b) -> R_access b
        | Access, _ -> R_access 0
        | Readlink, Some (R_readlink t) -> R_readlink t
        | Readlink, _ -> R_readlink ""
        | Read, _ -> R_read { attr; count; eof }
        | Write, Some (R_write { committed; _ }) -> R_write { count; committed; attr }
        | Write, _ -> R_write { count; committed = Types.File_sync; attr }
        | (Create | Mkdir | Symlink | Mknod), _ -> R_create { fh = rfh; attr }
        | (Remove | Rmdir | Rename | Link | Commit), _ -> R_empty
        | (Readdir | Readdirplus), _ -> R_readdir { entries = []; eof }
        | Statfs, Some (R_statfs _ as v)
        | Fsinfo, Some (R_fsinfo _ as v)
        | Pathconf, Some (R_pathconf _ as v) ->
            v
        | Statfs, _ -> R_statfs { total_bytes = 0L; free_bytes = 0L }
        | Fsinfo, _ -> R_fsinfo { rtmax = 32768; wtmax = 32768 }
        | Pathconf, _ -> R_pathconf { name_max = 255 }
      in
      Some (Ok success)

let canon (r : Record.t) =
  {
    r with
    time = canon_float r.time;
    reply_time = Option.map canon_float r.reply_time;
    client = r.client land 0xFFFFFFFF;
    server = r.server land 0xFFFFFFFF;
    call = canon_call r.call;
    result = canon_result (Record.proc r) r.result;
  }

let prop_parse_slice_roundtrip =
  QCheck.Test.make ~name:"parse_slice (add_line r) = r up to the text form" ~count:1000
    Record_gen.arb_record (fun r ->
      let b = Buffer.create 256 in
      Buffer.add_string b "x y|";
      Record.add_line b r;
      let len = Buffer.length b - 4 in
      (* bytes past the slice that would change the record if read *)
      Buffer.add_string b " | status=5 name=%zz";
      match Record.parse_slice (Buffer.contents b) ~pos:4 ~len with
      | Ok r' -> compare r' (canon r) = 0
      | Error e -> QCheck.Test.fail_reportf "rejected: %s" e)

(* The in-place float reader, seen through the time column. *)
let time_column s =
  match Record.of_line (s ^ " - v3 10.0.0.1 10.0.0.2 00000001 0 0 null") with
  | Ok r -> Some r.time
  | Error _ -> None

let reads_like_float_of_string s =
  match (time_column s, float_of_string_opt s) with
  | Some a, Some b ->
      Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
      || (Float.is_nan a && Float.is_nan b)
  | None, None -> true
  | _ -> false

(* Decimal strings of the 16-digit integers around 2^53, with the point
   at every position: both sides of the fast path's mantissa bound. *)
let near_2_53 =
  QCheck.Gen.map2
    (fun delta k ->
      let d = string_of_int ((1 lsl 53) + delta) in
      let n = String.length d in
      String.sub d 0 (n - k) ^ "." ^ String.sub d (n - k) k)
    (QCheck.Gen.int_range (-1000) 1000) (QCheck.Gen.int_range 0 16)

let prop_float_reader =
  let open QCheck.Gen in
  let float_gen =
    oneof
      [
        map (fun i -> Int64.float_of_bits (Int64.of_int i)) int;
        map (fun i -> -.Int64.float_of_bits (Int64.of_int i)) int;
        map2
          (fun sec us -> float_of_int sec +. (float_of_int us /. 1e6))
          (int_range 0 2_000_000_000) (int_range 0 999_999);
        float;
      ]
  in
  let spelling =
    oneof
      [
        map (Printf.sprintf "%.6f") float_gen;
        map string_of_float float_gen;
        near_2_53;
        oneofl
          [
            "998438400."; "1e+20"; "nan"; "inf"; "-inf"; "-0."; "-0.000000"; "0."; "1."; ".5";
            "-.5"; "1_0.5"; "+1.5"; "0x1p3"; "9007199254740991"; "9007199254740993";
            "9007199254740992.5";
          ];
      ]
  in
  QCheck.Test.make ~name:"float reader = float_of_string" ~count:2000
    (QCheck.make ~print:Fun.id spelling)
    reads_like_float_of_string

let test_float_reader_cases () =
  List.iter
    (fun s ->
      Alcotest.(check bool) (s ^ " reads as float_of_string") true (reads_like_float_of_string s))
    [
      "998438400."; "1e+20"; "nan"; "inf"; "-inf"; "-0."; "9007199254.740991"; "9007199254.740993";
      "1003622400.123456";
    ]

(* Wherever the new parser accepts a line, the old token-list parser
   accepts it too and builds the same record. *)
let differential lines =
  List.fold_left
    (fun (accepted, total) line ->
      match Record.of_line line with
      | Error _ -> (accepted, total + 1)
      | Ok r -> (
          match Legacy_record_parser.of_line line with
          | Ok r' when compare r r' = 0 -> (accepted + 1, total + 1)
          | Ok _ -> Alcotest.failf "records differ on %S" line
          | Error e -> Alcotest.failf "old parser rejects (%s) %S" e line))
    (0, 0) lines

let simulated_lines which =
  let t0 = Nt_util.Trace_week.time_of ~day:Nt_util.Trace_week.Wed ~hour:9 ~minute:0 in
  let acc = ref [] in
  let sink r = acc := Record.to_line r :: !acc in
  (match which with
  | `Eecs -> ignore (Nt_core.Pipeline.simulate_eecs ~start:t0 ~stop:(t0 +. 600.) ~sink ())
  | `Campus ->
      let config = { Nt_workload.Email.default_config with users = 4 } in
      ignore (Nt_core.Pipeline.simulate_campus ~config ~start:t0 ~stop:(t0 +. 600.) ~sink ()));
  List.rev !acc

let test_differential_simulated () =
  List.iter
    (fun (label, which) ->
      let lines = simulated_lines which in
      let accepted, total = differential lines in
      Alcotest.(check bool) (label ^ " trace is non-trivial") true (total > 200);
      Alcotest.(check int) (label ^ ": every line accepted") total accepted)
    [ ("eecs", `Eecs); ("campus", `Campus) ]

(* 10k simulated lines with up to four random byte edits each. *)
let storm_lines =
  lazy
    (let pool = Array.of_list (simulated_lines `Eecs @ simulated_lines `Campus) in
     let rng = Random.State.make [| 13 |] in
     let alphabet = "0123456789abcdefxXobu_+-.=| %vDLR\t" in
     let mutate line =
       let s = ref line in
       for _ = 0 to Random.State.int rng 3 do
         let n = String.length !s in
         let i = Random.State.int rng (max 1 n) in
         let c =
           if Random.State.bool rng then alphabet.[Random.State.int rng (String.length alphabet)]
           else Char.chr (Random.State.int rng 256)
         in
         s :=
           match Random.State.int rng 3 with
           | 0 when n > 0 -> String.sub !s 0 i ^ String.make 1 c ^ String.sub !s (i + 1) (n - i - 1)
           | 1 when n > 0 -> String.sub !s 0 i ^ String.sub !s (i + 1) (n - i - 1)
           | _ -> String.sub !s 0 i ^ String.make 1 c ^ String.sub !s i (n - i)
       done;
       !s
     in
     List.init 10_000 (fun _ -> mutate pool.(Random.State.int rng (Array.length pool))))

let test_differential_mutation_storm () =
  let accepted, total = differential (Lazy.force storm_lines) in
  Alcotest.(check int) "10k lines" 10_000 total;
  Alcotest.(check bool) "the storm exercises accepted lines" true
    (accepted > 1000 && accepted < total)

(* --- two-way differential against the two-walk parser --- *)

(* Record.parse_slice and Record_oracle.parse_slice on one slice: the
   same verdict, and equal records where both accept. 1 if accepted. *)
let agree what s ~pos ~len =
  let line () = String.sub s pos len in
  match (Record.parse_slice s ~pos ~len, Record_oracle.parse_slice s ~pos ~len) with
  | Ok r, Ok r' -> if compare r r' = 0 then 1 else Alcotest.failf "%s: records differ on %S" what (line ())
  | Error _, Error _ -> 0
  | Ok _, Error e -> Alcotest.failf "%s: only the oracle rejects (%s) %S" what e (line ())
  | Error e, Ok _ -> Alcotest.failf "%s: only the new parser rejects (%s) %S" what e (line ())

let two_way what lines =
  List.fold_left (fun n l -> n + agree what l ~pos:0 ~len:(String.length l)) 0 lines

let test_two_way_simulated () =
  List.iter
    (fun (label, which) ->
      let lines = simulated_lines which in
      Alcotest.(check int) (label ^ ": every line accepted by both") (List.length lines)
        (two_way label lines))
    [ ("eecs", `Eecs); ("campus", `Campus) ]

let test_two_way_storm () =
  let accepted = two_way "storm" (Lazy.force storm_lines) in
  Alcotest.(check bool) "the storm exercises both verdicts" true
    (accepted > 1000 && accepted < 10_000)

(* Lines assembled from spellings each field may or may not accept. *)
let token_soup =
  let open QCheck.Gen in
  let times =
    [ "1003914002.351399"; "1"; "-0."; "1e5"; ".5"; "1."; "12345678901234567890";
      "9007199254740993"; "90071992547409.93"; "nan"; ""; "1.2.3"; "-"; "1:2" ]
  in
  let ips = [ "10.1.2.3"; "256.1.1.1"; "1.2.3"; "01.002.3.004"; "1.2.3.4.5"; "-1.2.3.4"; "1..2.3" ] in
  let xids =
    [ "0"; "abcdef"; "ABCDEF12"; "fffffffffffffff"; "7fffffffffffffff"; "8000000000000000"; "g1"; "" ]
  in
  let ints =
    [ "0"; "-5"; "-"; "18446744073709551616"; "4611686018427387903"; "4611686018427387904";
      "999999999999999999"; "+1"; "1_0"; "0x1f"; "" ]
  in
  let keys =
    [ "fh"; "off"; "count"; "dir"; "name"; "acc"; "stable"; "mode"; "excl"; "target"; "todir";
      "toname"; "cookie"; "ssize"; "smode"; "suid"; "sgid"; "satime"; "smtime"; "status"; "size";
      "fileid"; "ftype"; "mtime"; "rcount"; "eof"; "rfh"; "racc"; "rtarget"; "committed";
      "tbytes"; "fbytes"; "rtmax"; "wtmax"; "namemax"; "zz"; "" ]
  in
  let values =
    [ "0"; "2"; "-1"; "1"; "DIR"; "LNK"; "REG"; "4e4648310000000300000000000000020000"; "abc";
      "0123456789abcdefABCDEF"; "%41b"; "%zz"; "a%4"; ""; "1e3"; "998438400."; "12345678901234567890" ]
  in
  let proc = oneofl (List.map Nt_nfs.Proc.to_string Nt_nfs.Proc.all @ [ "bogus"; "read2"; "" ]) in
  let token =
    frequency
      [ (8, map2 (fun k v -> k ^ "=" ^ v) (oneofl keys) (oneofl values)); (1, oneofl [ "|"; ""; "x" ]) ]
  in
  (* Mostly accepted spellings, so that the tokens decide the verdict. *)
  let col good all = frequency [ (4, oneofl good); (1, oneofl all) ] in
  let ip = col [ "10.1.2.3"; "01.002.3.004" ] ips and int = col [ "0"; "-5"; "4611686018427387903" ] ints in
  let fixed =
    [ col [ "1003914002.351399"; "1." ] times; col [ "-"; "1003914002.351999" ] ("-" :: times);
      col [ "v2"; "v3" ] [ "v4"; "v"; "V3" ]; ip; ip; col [ "abcdef"; "ABCDEF12" ] xids; int; int;
      proc ]
  in
  map2 (fun cols toks -> String.concat " " (cols @ toks)) (flatten_l fixed) (list_size (0 -- 12) token)

let prop_two_way_soup =
  QCheck.Test.make ~name:"two-way differential on token soup" ~count:3000
    (QCheck.make ~print:Fun.id token_soup)
    (fun line -> agree "soup" ("-" ^ line ^ "7") ~pos:1 ~len:(String.length line) >= 0)

let test_soup_accepts () =
  let lines = QCheck.Gen.generate ~rand:(Random.State.make [| 5 |]) ~n:3000 token_soup in
  let accepted = two_way "soup" lines in
  Alcotest.(check bool) (Printf.sprintf "soup exercises both verdicts (%d of 3000)" accepted) true
    (accepted > 100 && accepted < 2900)

(* Each line as a slice of one buffer, between neighbours a scan that
   strays past either end would read ('-' before, digits after), and
   the whole buffer through Record.Decoder's window. *)
let test_two_way_slices () =
  let lines = simulated_lines `Eecs @ Lazy.force storm_lines in
  let b = Buffer.create (1 lsl 20) in
  let spans =
    List.map
      (fun l ->
        Buffer.add_char b '-';
        let pos = Buffer.length b in
        Buffer.add_string b l;
        Buffer.add_string b "7 1";
        (pos, String.length l))
      lines
  in
  let s = Buffer.contents b in
  let accepted = List.fold_left (fun n (pos, len) -> n + agree "slice" s ~pos ~len) 0 spans in
  Alcotest.(check bool) "slices accepted" true (accepted > 1000);
  let text = String.concat "\n" lines in
  let path = Filename.temp_file "nt_trace" ".trace" in
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  let decoded, rejected = read_trace path in
  Sys.remove path;
  let oracle =
    List.filter_map
      (fun l -> if l = "" then None else Some (Record_oracle.of_line l))
      (String.split_on_char '\n' text)
  in
  let oks = List.filter_map Result.to_option oracle in
  Alcotest.(check int) "decoder rejects what the oracle rejects"
    (List.length oracle - List.length oks) rejected;
  Alcotest.(check bool) "decoder records equal the oracle's" true (compare decoded oks = 0)

(* Minor words per line that Record.of_line allocates on the simulated
   lines: the record, its handles and names, and the boxes it needs. *)
let test_parse_allocation_budget () =
  List.iter
    (fun (label, which, bound) ->
      let lines = simulated_lines which in
      let before = Gc.minor_words () in
      List.iter (fun l -> ignore (Sys.opaque_identity (Record.of_line l))) lines;
      let w = (Gc.minor_words () -. before) /. float_of_int (List.length lines) in
      if w > bound then
        Alcotest.failf "%s: %.1f minor words per line, over the budget of %.1f" label w bound)
    (* The two-walk parser measured 73.0 and 68.1; each bound is that
       plus 10%. *)
    [ ("eecs", `Eecs, 80.3); ("campus", `Campus, 74.9) ]

(* Spellings the old parser took through int_of_string/unescape and the
   grammar now rejects: exactly the list in DESIGN.md §18. *)
let test_rejected_quirks () =
  let read = Record.to_line base_record in
  let lookup =
    Record.to_line
      {
        base_record with
        call = Ops.Lookup { dir = dir_fh; name = "ab" };
        result = Some (Error Types.Err_noent);
      }
  in
  let create =
    Record.to_line
      {
        base_record with
        call = Ops.Create { dir = dir_fh; name = "f"; mode = 0o600; exclusive = false };
        result = Some (Ok (Ops.R_create { fh = Some file_fh; attr = None }));
      }
  in
  let sub ~line a b =
    let rec find i = if String.sub line i (String.length a) = a then i else find (i + 1) in
    let i = find 0 in
    let j = i + String.length a in
    String.sub line 0 i ^ b ^ String.sub line j (String.length line - j)
  in
  let cases =
    [
      ("0x prefix in a decimal field", sub ~line:read " 1042 " " 0x412 ");
      ("0o prefix in a decimal field", sub ~line:read " 1042 " " 0o2022 ");
      ("0b prefix in a decimal field", sub ~line:read " 100 read" " 0b1100100 read");
      ("0u prefix in a decimal field", sub ~line:read " 1042 " " 0u1042 ");
      ("underscore in a decimal field", sub ~line:read "count=8192" "count=8_192");
      ("leading + in a decimal field", sub ~line:read "off=8192" "off=+8192");
      ("0x prefix in an address octet", sub ~line:read " 10.1.0.20 " " 0xa.1.0.20 ");
      ("sign in an address octet", sub ~line:read " 10.1.0.20 " " 10.1.-0.20 ");
      ("underscore in the xid", sub ~line:read " abcd1234 " " abcd_1234 ");
      ("unparsable kept reply field", sub ~line:read "rcount=8192" "rcount=lots");
      ("unparsable status", sub ~line:read "status=0" "status=ok");
      ("unparsable optional call field", sub ~line:create "mode=384" "mode=rw");
      ("unparsable reply handle", sub ~line:create "rfh=" "rfh=zz");
      ("% without two hex digits in a name", sub ~line:lookup "name=ab" "name=a%zzb");
      ("% at the end of a name", sub ~line:lookup "name=ab" "name=ab%4");
    ]
  in
  List.iter
    (fun (what, line) ->
      Alcotest.(check bool) (what ^ ": old parser accepts") true
        (Result.is_ok (Legacy_record_parser.of_line line));
      Alcotest.(check bool) (what ^ ": rejected now") true (Result.is_error (Record.of_line line)))
    cases

let test_iter_channel_counts_rejected () =
  let path = Filename.temp_file "nt_trace" ".trace" in
  let records = List.init 1000 (fun i -> { base_record with xid = i }) in
  let oc = open_out path in
  ignore (Record.write_channel oc (List.to_seq records) : int);
  output_string oc "garbage line\n\n1.0 - v9 junk\n";
  close_out oc;
  let back, rejected = read_trace path in
  let via_pipeline = ref 0 in
  let loaded = Nt_core.Pipeline.load_trace ~rejected:via_pipeline path in
  Sys.remove path;
  Alcotest.(check int) "1000 records" 1000 (List.length back);
  Alcotest.(check int) "2 malformed lines counted, the blank line is not" 2 rejected;
  Alcotest.(check int) "load_trace loads the same" 1000 (List.length loaded);
  Alcotest.(check int) "load_trace counts the same" 2 !via_pipeline

let () =
  Alcotest.run "nt_trace"
    [
      ( "record",
        [
          Alcotest.test_case "roundtrip read" `Quick test_line_roundtrip_read;
          Alcotest.test_case "roundtrip all procs" `Quick test_line_roundtrip_all_procs;
          Alcotest.test_case "escaping" `Quick test_line_escaping;
          Alcotest.test_case "lost reply" `Quick test_line_lost_reply;
          Alcotest.test_case "error result" `Quick test_line_error_result;
          Alcotest.test_case "bad input" `Quick test_line_bad_input;
          Alcotest.test_case "long escaped name" `Quick test_long_escaped_name;
          Alcotest.test_case "io bytes" `Quick test_io_bytes;
          Alcotest.test_case "channel roundtrip" `Quick test_channel_roundtrip;
          QCheck_alcotest.to_alcotest prop_record_line_roundtrip;
          QCheck_alcotest.to_alcotest prop_of_line_never_crashes;
          QCheck_alcotest.to_alcotest prop_parse_slice_roundtrip;
          QCheck_alcotest.to_alcotest prop_float_reader;
          Alcotest.test_case "float reader cases" `Quick test_float_reader_cases;
          Alcotest.test_case "differential vs old parser" `Quick test_differential_simulated;
          Alcotest.test_case "differential mutation storm" `Quick test_differential_mutation_storm;
          Alcotest.test_case "two-way differential: simulated" `Quick test_two_way_simulated;
          Alcotest.test_case "two-way differential: mutation storm" `Quick test_two_way_storm;
          Alcotest.test_case "two-way differential: slices and decoder" `Quick
            test_two_way_slices;
          QCheck_alcotest.to_alcotest prop_two_way_soup;
          Alcotest.test_case "token soup reaches both verdicts" `Quick test_soup_accepts;
          Alcotest.test_case "text parse allocation budget" `Quick test_parse_allocation_budget;
          Alcotest.test_case "rejected literal quirks" `Quick test_rejected_quirks;
          Alcotest.test_case "iter_channel counts rejected" `Quick
            test_iter_channel_counts_rejected;
        ] );
      ( "capture",
        [
          Alcotest.test_case "udp roundtrip" `Quick test_capture_udp_roundtrip;
          Alcotest.test_case "tcp roundtrip" `Quick test_capture_tcp_roundtrip;
          Alcotest.test_case "lost reply" `Quick test_capture_lost_reply;
          Alcotest.test_case "orphan reply" `Quick test_capture_orphan_reply;
          Alcotest.test_case "garbage frame" `Quick test_capture_garbage_frame;
          Alcotest.test_case "duplicate call/reply" `Quick test_capture_duplicate_call_reply;
          Alcotest.test_case "fuzz 10k frames" `Quick test_capture_fuzz_10k;
          QCheck_alcotest.to_alcotest prop_capture_never_crashes_on_garbage;
          QCheck_alcotest.to_alcotest prop_capture_survives_bitflips;
          Alcotest.test_case "unknown NFS version" `Quick test_capture_unknown_version;
          Alcotest.test_case "lost replies leave in call order" `Quick
            test_lost_replies_in_call_order;
        ] );
      ( "degraded",
        [
          Alcotest.test_case "duplicates conserved" `Quick test_degraded_duplicates_conserved;
          Alcotest.test_case "corrupt+truncate conserved" `Quick
            test_degraded_corrupt_truncate_conserved;
          Alcotest.test_case "acceptance: burst+corrupt+dup+trunc" `Quick
            test_degraded_acceptance_burst;
          Alcotest.test_case "salvage mangled pcap" `Quick test_degraded_salvage_mangled_pcap;
          Alcotest.test_case "analysis drift bounded" `Quick test_degraded_drift_bounded;
        ] );
      ( "slices",
        [
          Alcotest.test_case "clean campus tcp" `Quick test_slice_clean_tcp;
          Alcotest.test_case "campus burst faults" `Quick test_slice_burst;
          Alcotest.test_case "reordered segments" `Quick test_slice_reordered;
          Alcotest.test_case "salvage" `Quick test_slice_salvage;
          Alcotest.test_case "buffered records do not alias" `Quick
            test_buffered_records_do_not_alias;
          Alcotest.test_case "capture allocation budget" `Quick test_allocation_budget;
          Alcotest.test_case "two captures on two domains" `Quick test_two_captures_two_domains;
          Alcotest.test_case "two-stage decode matches one domain" `Quick
            test_two_stage_matches_one_domain;
          Alcotest.test_case "two-stage decode stops on either stage's error" `Quick
            test_two_stage_failures;
        ] );
      ( "anonymize",
        [
          Alcotest.test_case "consistent" `Quick test_anon_consistent;
          Alcotest.test_case "changes names" `Quick test_anon_changes_names;
          Alcotest.test_case "suffix shared" `Quick test_anon_suffix_shared;
          Alcotest.test_case "special affixes" `Quick test_anon_special_affixes;
          Alcotest.test_case "preserved names" `Quick test_anon_preserved_names;
          Alcotest.test_case "lock suffix" `Quick test_anon_lock_suffix_preserved;
          Alcotest.test_case "dotfile dot" `Quick test_anon_dotfile_keeps_dot;
          Alcotest.test_case "uid/gid" `Quick test_anon_uid_gid;
          Alcotest.test_case "ip" `Quick test_anon_ip;
          Alcotest.test_case "seeds differ" `Quick test_anon_seeds_differ;
          Alcotest.test_case "record" `Quick test_anon_record;
          Alcotest.test_case "omit mode" `Quick test_anon_omit;
          Alcotest.test_case "categories survive" `Quick test_anon_categories_survive;
        ] );
    ]
