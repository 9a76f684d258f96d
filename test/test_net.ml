(* Network layer tests: IP addresses, Ethernet/IPv4/UDP/TCP codecs,
   pcap files, TCP stream reassembly. *)

module Ip = Nt_net.Ip_addr
module Frame = Nt_net.Frame
module Pcap = Nt_net.Pcap
module Tcp = Nt_net.Tcp_reassembly

let ip1 = Ip.v 10 0 0 1
let ip2 = Ip.v 192 168 1 254

(* --- ip addresses --- *)

let test_ip_to_string () =
  Alcotest.(check string) "render" "10.0.0.1" (Ip.to_string ip1);
  Alcotest.(check string) "render 2" "192.168.1.254" (Ip.to_string ip2)

let test_ip_of_string () =
  Alcotest.(check (option int)) "parse" (Some ip1) (Ip.of_string "10.0.0.1");
  Alcotest.(check (option int)) "reject short" None (Ip.of_string "10.0.0");
  Alcotest.(check (option int)) "reject range" None (Ip.of_string "10.0.0.256");
  Alcotest.(check (option int)) "reject junk" None (Ip.of_string "not.an.ip.addr")

let test_ip_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check (option string)) "roundtrip" (Some s) (Option.map Ip.to_string (Ip.of_string s)))
    [ "0.0.0.0"; "255.255.255.255"; "1.2.3.4" ]

(* --- frames --- *)

let test_udp_roundtrip () =
  let f = Frame.udp ~src_ip:ip1 ~dst_ip:ip2 ~src_port:700 ~dst_port:2049 "payload-bytes" in
  match Frame.decode (Frame.encode f) with
  | Ok f' -> (
      Alcotest.(check int) "src ip" ip1 f'.src_ip;
      Alcotest.(check int) "dst ip" ip2 f'.dst_ip;
      match f'.transport with
      | Frame.Udp u ->
          Alcotest.(check int) "sport" 700 u.src_port;
          Alcotest.(check int) "dport" 2049 u.dst_port;
          Alcotest.(check string) "payload" "payload-bytes" u.payload
      | Frame.Tcp _ -> Alcotest.fail "expected UDP")
  | Error e -> Alcotest.fail e

let test_tcp_roundtrip () =
  let f =
    Frame.tcp ~syn:true ~src_ip:ip1 ~dst_ip:ip2 ~src_port:1023 ~dst_port:2049 ~seq:123456 "data"
  in
  match Frame.decode (Frame.encode f) with
  | Ok f' -> (
      match f'.transport with
      | Frame.Tcp t ->
          Alcotest.(check int) "seq" 123456 t.seq;
          Alcotest.(check bool) "syn" true t.syn;
          Alcotest.(check bool) "fin" false t.fin;
          Alcotest.(check string) "payload" "data" t.payload
      | Frame.Udp _ -> Alcotest.fail "expected TCP")
  | Error e -> Alcotest.fail e

let test_jumbo_frame () =
  let payload = String.make 8800 'J' in
  let f = Frame.udp ~src_ip:ip1 ~dst_ip:ip2 ~src_port:1 ~dst_port:2 payload in
  match Frame.decode (Frame.encode f) with
  | Ok f' -> (
      match f'.transport with
      | Frame.Udp u -> Alcotest.(check int) "jumbo payload intact" 8800 (String.length u.payload)
      | _ -> Alcotest.fail "expected UDP")
  | Error e -> Alcotest.fail e

let test_checksum_valid () =
  let raw = Frame.encode (Frame.udp ~src_ip:ip1 ~dst_ip:ip2 ~src_port:1 ~dst_port:2 "x") in
  (* Recomputing the checksum over the IP header including the stored
     checksum yields 0 (one's-complement property). *)
  Alcotest.(check int) "header sums to zero" 0 (Frame.ipv4_checksum raw ~pos:14 ~len:20)

let test_decode_errors () =
  let err s = match Frame.decode s with Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "short frame" true (err "tiny");
  let raw = Frame.encode (Frame.udp ~src_ip:ip1 ~dst_ip:ip2 ~src_port:1 ~dst_port:2 "hello") in
  let non_ip = Bytes.of_string raw in
  Bytes.set non_ip 12 '\x08';
  Bytes.set non_ip 13 '\x06' (* ARP *);
  Alcotest.(check bool) "non-IPv4 ethertype" true (err (Bytes.to_string non_ip));
  let truncated = String.sub raw 0 (String.length raw - 3) in
  Alcotest.(check bool) "truncated packet" true (err truncated)

let test_mac_fields () =
  let f =
    Frame.udp ~src_mac:"\x02\x00\x00\x00\x00\x0A" ~dst_mac:"\x02\x00\x00\x00\x00\x0B"
      ~src_ip:ip1 ~dst_ip:ip2 ~src_port:5 ~dst_port:6 ""
  in
  match Frame.decode (Frame.encode f) with
  | Ok f' ->
      Alcotest.(check string) "src mac" "\x02\x00\x00\x00\x00\x0A" f'.src_mac;
      Alcotest.(check string) "dst mac" "\x02\x00\x00\x00\x00\x0B" f'.dst_mac
  | Error e -> Alcotest.fail e

(* --- pcap --- *)

let test_pcap_roundtrip () =
  let buf = Buffer.create 256 in
  let w = Pcap.writer_to_buffer buf in
  Pcap.write w ~time:1003622400.000001 "packet-one";
  Pcap.write w ~time:1003622401.5 "packet-two-longer";
  let r = Pcap.reader_of_string (Buffer.contents buf) in
  (match Pcap.read_next r with
  | Some p ->
      Alcotest.(check string) "data 1" "packet-one" p.data;
      Alcotest.(check int) "orig len" 10 p.orig_len;
      Alcotest.(check (float 0.001) "time 1") 1003622400.000001 p.time
  | None -> Alcotest.fail "missing packet 1");
  (match Pcap.read_next r with
  | Some p -> Alcotest.(check string) "data 2" "packet-two-longer" p.data
  | None -> Alcotest.fail "missing packet 2");
  Alcotest.(check bool) "eof" true (Pcap.read_next r = None)

let test_pcap_snaplen () =
  let buf = Buffer.create 256 in
  let w = Pcap.writer_to_buffer ~snaplen:8 buf in
  Pcap.write w ~time:0. "0123456789ABCDEF";
  let r = Pcap.reader_of_string (Buffer.contents buf) in
  match Pcap.read_next r with
  | Some p ->
      Alcotest.(check string) "snapped" "01234567" p.data;
      Alcotest.(check int) "orig preserved" 16 p.orig_len
  | None -> Alcotest.fail "missing packet"

let test_pcap_bad_magic () =
  Alcotest.(check bool) "bad magic rejected" true
    (try
       ignore (Pcap.reader_of_string (String.make 24 'z'));
       false
     with Pcap.Bad_format _ -> true)

let test_pcap_truncated_header () =
  Alcotest.(check bool) "short header rejected" true
    (try
       ignore (Pcap.reader_of_string "abc");
       false
     with Pcap.Bad_format _ -> true)

let test_pcap_big_endian () =
  (* Hand-build a big-endian microsecond header with one empty packet. *)
  let buf = Buffer.create 64 in
  let be32 v =
    Buffer.add_char buf (Char.chr ((v lsr 24) land 0xFF));
    Buffer.add_char buf (Char.chr ((v lsr 16) land 0xFF));
    Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF));
    Buffer.add_char buf (Char.chr (v land 0xFF))
  in
  be32 0xA1B2C3D4;
  Buffer.add_string buf "\x00\x02\x00\x04";
  be32 0;
  be32 0;
  be32 65535;
  be32 1;
  be32 1000;
  be32 250000;
  be32 3;
  be32 3;
  Buffer.add_string buf "abc";
  let r = Pcap.reader_of_string (Buffer.contents buf) in
  match Pcap.read_next r with
  | Some p ->
      Alcotest.(check string) "data" "abc" p.data;
      Alcotest.(check (float 1e-6) "time") 1000.25 p.time
  | None -> Alcotest.fail "missing packet"

let test_pcap_truncated_final_record () =
  (* A capture cut off mid-record must not raise: the good prefix is
     returned and the cut is accounted in read_stats. *)
  let buf = Buffer.create 256 in
  let w = Pcap.writer_to_buffer buf in
  Pcap.write w ~time:1000. "first-packet";
  Pcap.write w ~time:1001. "second-packet";
  let whole = Buffer.contents buf in
  (* Cut inside the second record's payload. *)
  let cut_payload = String.sub whole 0 (String.length whole - 5) in
  let r = Pcap.reader_of_string cut_payload in
  Alcotest.(check bool) "first packet survives" true (Pcap.read_next r <> None);
  Alcotest.(check bool) "cut record yields None" true (Pcap.read_next r = None);
  let st = Pcap.read_stats r in
  Alcotest.(check bool) "truncated tail flagged" true st.truncated_tail;
  Alcotest.(check bool) "cut bytes counted" true (st.skipped_bytes > 0);
  Alcotest.(check int) "one good record" 1 st.records;
  (* Cut inside the second record's header. *)
  let second_hdr = 24 + 16 + 12 in
  let cut_header = String.sub whole 0 (second_hdr + 7) in
  let r2 = Pcap.reader_of_string cut_header in
  Alcotest.(check bool) "first packet survives 2" true (Pcap.read_next r2 <> None);
  Alcotest.(check bool) "cut header yields None" true (Pcap.read_next r2 = None);
  Alcotest.(check bool) "tail flagged 2" true (Pcap.read_stats r2).truncated_tail

let corrupt_second_record_length () =
  (* Three packets; the middle record's incl-length field is smashed. *)
  let buf = Buffer.create 256 in
  let w = Pcap.writer_to_buffer buf in
  Pcap.write w ~time:1000. (String.make 20 'A');
  Pcap.write w ~time:1001. (String.make 24 'B');
  Pcap.write w ~time:1002. (String.make 28 'C');
  let b = Bytes.of_string (Buffer.contents buf) in
  let second = 24 + 16 + 20 in
  (* incl is the third little-endian u32 of the record header. *)
  Bytes.set b (second + 8) '\xFF';
  Bytes.set b (second + 9) '\xFF';
  Bytes.set b (second + 10) '\xFF';
  Bytes.set b (second + 11) '\x7F';
  Bytes.to_string b

let test_pcap_corrupt_raises_without_salvage () =
  let pcap = corrupt_second_record_length () in
  let r = Pcap.reader_of_string pcap in
  Alcotest.(check bool) "first ok" true (Pcap.read_next r <> None);
  Alcotest.(check bool) "corrupt length raises" true
    (try
       ignore (Pcap.read_next r);
       false
     with Pcap.Bad_format _ -> true)

let test_pcap_salvage_resyncs () =
  let pcap = corrupt_second_record_length () in
  let r = Pcap.reader_of_string ~salvage:true pcap in
  let all = List.of_seq (Pcap.packets r) in
  (* The corrupt middle record is lost; the reader resyncs on the third. *)
  Alcotest.(check int) "two packets recovered" 2 (List.length all);
  Alcotest.(check string) "first intact" (String.make 20 'A') (List.nth all 0).Pcap.data;
  Alcotest.(check string) "third recovered" (String.make 28 'C') (List.nth all 1).Pcap.data;
  let st = Pcap.read_stats r in
  Alcotest.(check int) "one salvage" 1 st.salvaged;
  (* Skipped exactly the mangled record: its 16-byte header + 24 bytes. *)
  Alcotest.(check int) "skipped bytes accounted" 40 st.skipped_bytes;
  Alcotest.(check bool) "no truncated tail" false st.truncated_tail

let test_pcap_salvage_corrupt_tail () =
  (* Corruption in the LAST record: salvage scans to EOF and reports. *)
  let buf = Buffer.create 128 in
  let w = Pcap.writer_to_buffer buf in
  Pcap.write w ~time:1000. "only-good-packet";
  Pcap.write w ~time:1001. (String.make 30 'Z');
  let b = Bytes.of_string (Buffer.contents buf) in
  let second = 24 + 16 + 16 in
  Bytes.set b (second + 8) '\xEE';
  Bytes.set b (second + 11) '\x7E';
  let r = Pcap.reader_of_string ~salvage:true (Bytes.to_string b) in
  Alcotest.(check int) "one packet" 1 (Seq.length (Pcap.packets r));
  let st = Pcap.read_stats r in
  Alcotest.(check bool) "tail reported" true (st.truncated_tail || st.skipped_bytes > 0)

let test_pcap_fold_and_seq () =
  let buf = Buffer.create 256 in
  let w = Pcap.writer_to_buffer buf in
  for i = 1 to 5 do
    Pcap.write w ~time:(float_of_int i) (String.make i 'x')
  done;
  let r = Pcap.reader_of_string (Buffer.contents buf) in
  Alcotest.(check int) "fold count" 5 (Seq.fold_left (fun acc _ -> acc + 1) 0 (Pcap.packets r));
  let r2 = Pcap.reader_of_string (Buffer.contents buf) in
  Alcotest.(check int) "seq length" 5 (Seq.length (Pcap.packets r2))

let with_file contents f =
  let path = Filename.temp_file "nt_net_test" ".pcap" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc contents);
      In_channel.with_open_bin path f)

let slices r =
  let rec go acc =
    match Pcap.read_slice r with
    | Some s -> go (String.sub s.Pcap.buf s.off s.len :: acc)
    | None -> List.rev acc
  in
  go []

let test_pcap_channel_reuses_buffer () =
  (* Records larger than the reader's initial 64 KiB buffer force it to
     grow mid-stream; every slice still reads its own bytes. *)
  let sizes = [ 60; 9000; 70_000; 14; 150_000; 1500 ] in
  let payloads = List.mapi (fun i n -> String.make n (Char.chr (65 + i))) sizes in
  let buf = Buffer.create 4096 in
  let w = Pcap.writer_to_buffer ~snaplen:200_000 buf in
  List.iteri (fun i p -> Pcap.write w ~time:(float_of_int i) p) payloads;
  let pcap = Buffer.contents buf in
  Alcotest.(check (list string)) "string reader" payloads (slices (Pcap.reader_of_string pcap));
  with_file pcap (fun ic ->
      Alcotest.(check (list string)) "channel reader" payloads (slices (Pcap.reader_of_channel ic)))

let test_pcap_salvage_over_channel () =
  let pcap = corrupt_second_record_length () in
  let from_string = Pcap.reader_of_string ~salvage:true pcap in
  let want = slices from_string in
  with_file pcap (fun ic ->
      let r = Pcap.reader_of_channel ~salvage:true ic in
      Alcotest.(check (list string)) "same packets" want (slices r);
      Alcotest.(check bool) "same accounting" true
        (Pcap.read_stats r = Pcap.read_stats from_string))

let test_frame_decode_slice_in_place () =
  let f =
    Frame.tcp ~src_ip:ip1 ~dst_ip:ip2 ~src_port:800 ~dst_port:2049 ~seq:77 ~syn:true "payload!"
  in
  let wire = Frame.encode f in
  let buf = "prefix" ^ wire ^ "suffix" in
  match Frame.decode_slice buf ~off:6 ~len:(String.length wire) with
  | Error e -> Alcotest.fail e
  | Ok h ->
      Alcotest.(check bool) "tcp" true h.is_tcp;
      Alcotest.(check int) "src ip" ip1 h.ip_src;
      Alcotest.(check int) "ports" 800 h.sport;
      Alcotest.(check int) "seq" 77 h.tcp_seq;
      Alcotest.(check bool) "syn" true h.tcp_syn;
      Alcotest.(check bool) "checksum" true h.checksum_ok;
      Alcotest.(check string) "payload range" "payload!"
        (String.sub buf h.payload_off h.payload_len);
      Alcotest.(check bool) "out-of-bounds slice rejected" true
        (Result.is_error (Frame.decode_slice buf ~off:10 ~len:(String.length wire)));
      (* A datagram that ends with its IP header: the transport header
         would lie past the end of the string, and is never read. *)
      List.iter
        (fun (name, proto) ->
          let b = Bytes.sub (Bytes.of_string wire) 0 34 in
          Bytes.set b 23 (Char.chr proto);
          Bytes.set_uint16_be b 16 20;
          Alcotest.(check bool) (name ^ " with no header rejected") true
            (Result.is_error (Frame.decode_slice (Bytes.to_string b) ~off:0 ~len:34)))
        [ ("udp", 17); ("tcp", 6) ]

(* --- TCP reassembly --- *)

let flow = { Tcp.src_ip = ip1; src_port = 1000; dst_ip = ip2; dst_port = 2049 }

let collect events =
  List.filter_map (function Tcp.Data d -> Some d | Tcp.Gap _ -> None) events
  |> String.concat ""

let test_tcp_in_order () =
  let t = Tcp.create () in
  let out1 = Tcp.push t flow ~seq:100 ~syn:false "hello " in
  let out2 = Tcp.push t flow ~seq:106 ~syn:false "world" in
  Alcotest.(check string) "stream" "hello world" (collect out1 ^ collect out2)

let test_tcp_out_of_order () =
  let t = Tcp.create () in
  ignore (Tcp.push t flow ~seq:99 ~syn:true "");
  let out1 = Tcp.push t flow ~seq:106 ~syn:false "world" in
  Alcotest.(check string) "held back" "" (collect out1);
  let out2 = Tcp.push t flow ~seq:100 ~syn:false "hello " in
  Alcotest.(check string) "released in order" "hello world" (collect out2)

let test_tcp_slice_holds_copies () =
  (* A segment held for reordering must survive the caller reusing the
     buffer it was read from. *)
  let t = Tcp.create () in
  let events = ref [] in
  let data events s off len = events := String.sub s off len :: !events in
  let gap _ _ = () in
  ignore (Tcp.push t flow ~seq:99 ~syn:true "");
  let buf = Bytes.of_string "....world" in
  Tcp.push_slice t flow ~seq:106 ~syn:false (Bytes.unsafe_to_string buf) ~off:4 ~len:5 ~data ~gap
    events;
  Alcotest.(check (list string)) "held back" [] !events;
  Bytes.fill buf 0 (Bytes.length buf) '#';
  Tcp.push_slice t flow ~seq:100 ~syn:false "hello " ~off:0 ~len:6 ~data ~gap events;
  Alcotest.(check (list string)) "released intact" [ "hello "; "world" ] (List.rev !events)

let test_tcp_midstream_join () =
  (* Without a SYN, the first segment seen defines the stream start —
     a monitor that attaches mid-connection must start somewhere. *)
  let t = Tcp.create () in
  let out = Tcp.push t flow ~seq:5000 ~syn:false "joined" in
  Alcotest.(check string) "first segment accepted" "joined" (collect out)

let test_tcp_duplicate () =
  let t = Tcp.create () in
  ignore (Tcp.push t flow ~seq:0 ~syn:false "abcd");
  let out = Tcp.push t flow ~seq:0 ~syn:false "abcd" in
  Alcotest.(check string) "duplicate dropped" "" (collect out)

let test_tcp_overlap () =
  let t = Tcp.create () in
  ignore (Tcp.push t flow ~seq:0 ~syn:false "abcd");
  let out = Tcp.push t flow ~seq:2 ~syn:false "cdEF" in
  Alcotest.(check string) "overlap trimmed" "EF" (collect out)

let test_tcp_syn_establishes () =
  let t = Tcp.create () in
  ignore (Tcp.push t flow ~seq:999 ~syn:true "");
  let out = Tcp.push t flow ~seq:1000 ~syn:false "after-syn" in
  Alcotest.(check string) "ISN+1" "after-syn" (collect out)

let test_tcp_gap_resync () =
  let t = Tcp.create ~max_buffered_segments:4 () in
  ignore (Tcp.push t flow ~seq:0 ~syn:false "start");
  (* Lose bytes 5..99; deliver far-ahead segments until forced resync. *)
  let got_gap = ref false in
  for i = 0 to 5 do
    let events = Tcp.push t flow ~seq:(100 + (i * 4)) ~syn:false "wxyz" in
    List.iter (function Tcp.Gap _ -> got_gap := true | Tcp.Data _ -> ()) events
  done;
  Alcotest.(check bool) "gap declared" true !got_gap;
  Alcotest.(check bool) "gap counted" true (Tcp.gaps t > 0)

let test_tcp_two_flows_independent () =
  let t = Tcp.create () in
  let flow2 = { flow with src_port = 1001 } in
  ignore (Tcp.push t flow ~seq:0 ~syn:false "AA");
  ignore (Tcp.push t flow2 ~seq:500 ~syn:false "BB");
  Alcotest.(check int) "two flows" 2 (Tcp.flows t)

let test_tcp_seq_wraparound () =
  let t = Tcp.create () in
  let near_wrap = 0xFFFFFFFE in
  ignore (Tcp.push t flow ~seq:near_wrap ~syn:false "ab");
  let out = Tcp.push t flow ~seq:0 ~syn:false "cd" in
  Alcotest.(check string) "wraps cleanly" "cd" (collect out)

let test_tcp_retransmission_wraparound () =
  (* Pure retransmissions (the d < 0 branch) across the 2^32 seq wrap:
     a duplicated segment straddling the wrap is dropped, partial
     overlaps are trimmed, and the stream stays intact. *)
  let t = Tcp.create () in
  let base = 0xFFFFFFF8 in
  ignore (Tcp.push t flow ~seq:(base - 1) ~syn:true "");
  let out1 = Tcp.push t flow ~seq:base ~syn:false "12345678" in
  Alcotest.(check string) "crosses wrap" "12345678" (collect out1);
  (* Exact duplicate of the wrap-straddling segment: retransmission. *)
  let dup = Tcp.push t flow ~seq:base ~syn:false "12345678" in
  Alcotest.(check string) "retransmission dropped" "" (collect dup);
  Alcotest.(check (list int)) "no gap events" []
    (List.filter_map (function Tcp.Gap g -> Some g | Tcp.Data _ -> None) dup);
  (* Overlapping retransmission that extends past delivered data. *)
  let out2 = Tcp.push t flow ~seq:0xFFFFFFFC ~syn:false "5678abcd" in
  Alcotest.(check string) "overlap trimmed across wrap" "abcd" (collect out2);
  Alcotest.(check int) "no gaps declared" 0 (Tcp.gaps t)

(* Drive segments through a Fault plan (duplication, displacement,
   bursty drop) and check the reassembler's contract: every Data event
   carries exactly the original bytes at the stream position implied by
   the Data/Gap sequence — degraded input, gap-accounted output. *)
let tcp_fault_plan_case ~plan ~seed ~base =
  let module Fault = Nt_sim.Fault in
  let message = String.init 960 (fun i -> Char.chr (32 + (i mod 95))) in
  let seg_len = 16 in
  let inj = Fault.create ~seed plan in
  let timed = ref [] in
  String.iteri
    (fun i _ ->
      if i mod seg_len = 0 then begin
        let payload = String.sub message i (min seg_len (String.length message - i)) in
        let seq = (base + i) land 0xFFFFFFFF in
        let at = float_of_int (i / seg_len) *. 0.001 in
        List.iter
          (fun (t, bytes) -> timed := (t, seq, bytes) :: !timed)
          (Fault.apply inj ~time:at payload)
      end)
    message;
  let arrivals =
    List.stable_sort (fun (a, _, _) (b, _, _) -> Float.compare a b) (List.rev !timed)
  in
  let t = Tcp.create ~max_buffered_segments:4 () in
  ignore (Tcp.push t flow ~seq:((base - 1) land 0xFFFFFFFF) ~syn:true "");
  let pos = ref 0 in
  List.iter
    (fun (_, seq, payload) ->
      List.iter
        (function
          | Tcp.Data d ->
              let expected = String.sub message !pos (String.length d) in
              Alcotest.(check string) "in-order bytes" expected d;
              pos := !pos + String.length d
          | Tcp.Gap g ->
              Alcotest.(check bool) "gap positive" true (g > 0);
              pos := !pos + g)
        (Tcp.push t flow ~seq ~syn:false payload))
    arrivals;
  let counts = Fault.counts inj in
  (counts, Tcp.gaps t, !pos)

let test_tcp_fault_duplication_reorder () =
  (* Duplication + displacement only: everything is recoverable, so the
     full message must come out with zero gaps, across the seq wrap. *)
  let module Fault = Nt_sim.Fault in
  let plan = { Fault.none with duplicate = 0.3; reorder = 0.15; reorder_displace = 0.0021 } in
  let counts, gaps, pos = tcp_fault_plan_case ~plan ~seed:11L ~base:0xFFFFFE00 in
  Alcotest.(check bool) "duplicates injected" true (counts.duplicated > 0);
  Alcotest.(check bool) "reorders injected" true (counts.reordered > 0);
  Alcotest.(check int) "no gaps" 0 gaps;
  Alcotest.(check int) "whole stream delivered" 960 pos

let test_tcp_fault_burst_loss_gap_accounted () =
  (* Add bursty loss: holes must be declared as gaps whose sizes keep
     the stream position honest (checked inside the driver). *)
  let module Fault = Nt_sim.Fault in
  let plan =
    {
      Fault.none with
      drop = Fault.Gilbert_elliott { p_gb = 0.05; p_bg = 0.3; loss_good = 0.01; loss_bad = 0.7 };
      duplicate = 0.2;
      reorder = 0.1;
      reorder_displace = 0.0021;
    }
  in
  let counts, gaps, pos = tcp_fault_plan_case ~plan ~seed:7L ~base:0xFFFFFE80 in
  Alcotest.(check bool) "packets dropped" true (counts.dropped > 0);
  Alcotest.(check bool) "gaps declared" true (gaps > 0);
  Alcotest.(check bool) "position within stream" true (pos <= 960)

let prop_tcp_shuffled_segments =
  QCheck.Test.make ~name:"reassembly restores shuffled segments" ~count:200
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, base) ->
      let rng = Nt_util.Prng.create (Int64.of_int (seed + 1)) in
      let message = String.init 120 (fun i -> Char.chr (33 + (i mod 90))) in
      (* split into segments of 1-20 bytes *)
      let rec split acc off =
        if off >= String.length message then List.rev acc
        else begin
          let len = min (1 + Nt_util.Prng.int rng 20) (String.length message - off) in
          split ((base + off, String.sub message off len) :: acc) (off + len)
        end
      in
      let segments = Array.of_list (split [] 0) in
      ignore base;
      (* shuffle bounded: swap adjacent pairs, so the buffer never overflows *)
      for i = 0 to Array.length segments - 2 do
        if Nt_util.Prng.bool rng then begin
          let tmp = segments.(i) in
          segments.(i) <- segments.(i + 1);
          segments.(i + 1) <- tmp
        end
      done;
      let t = Tcp.create () in
      ignore (Tcp.push t flow ~seq:(base - 1) ~syn:true "");
      let out = Buffer.create 128 in
      Array.iter
        (fun (seq, data) ->
          List.iter
            (function Tcp.Data d -> Buffer.add_string out d | Tcp.Gap _ -> ())
            (Tcp.push t flow ~seq ~syn:false data))
        segments;
      String.equal (Buffer.contents out) message)

let () =
  Alcotest.run "nt_net"
    [
      ( "ip_addr",
        [
          Alcotest.test_case "to_string" `Quick test_ip_to_string;
          Alcotest.test_case "of_string" `Quick test_ip_of_string;
          Alcotest.test_case "roundtrip" `Quick test_ip_roundtrip;
        ] );
      ( "frame",
        [
          Alcotest.test_case "udp roundtrip" `Quick test_udp_roundtrip;
          Alcotest.test_case "tcp roundtrip" `Quick test_tcp_roundtrip;
          Alcotest.test_case "jumbo frame" `Quick test_jumbo_frame;
          Alcotest.test_case "checksum" `Quick test_checksum_valid;
          Alcotest.test_case "decode errors" `Quick test_decode_errors;
          Alcotest.test_case "mac fields" `Quick test_mac_fields;
          Alcotest.test_case "decode in place" `Quick test_frame_decode_slice_in_place;
        ] );
      ( "pcap",
        [
          Alcotest.test_case "roundtrip" `Quick test_pcap_roundtrip;
          Alcotest.test_case "snaplen" `Quick test_pcap_snaplen;
          Alcotest.test_case "bad magic" `Quick test_pcap_bad_magic;
          Alcotest.test_case "truncated header" `Quick test_pcap_truncated_header;
          Alcotest.test_case "big endian" `Quick test_pcap_big_endian;
          Alcotest.test_case "fold and seq" `Quick test_pcap_fold_and_seq;
          Alcotest.test_case "truncated final record" `Quick test_pcap_truncated_final_record;
          Alcotest.test_case "corrupt raises without salvage" `Quick
            test_pcap_corrupt_raises_without_salvage;
          Alcotest.test_case "salvage resyncs" `Quick test_pcap_salvage_resyncs;
          Alcotest.test_case "salvage corrupt tail" `Quick test_pcap_salvage_corrupt_tail;
          Alcotest.test_case "channel reader reuses one buffer" `Quick
            test_pcap_channel_reuses_buffer;
          Alcotest.test_case "salvage over a channel" `Quick test_pcap_salvage_over_channel;
        ] );
      ( "tcp_reassembly",
        [
          Alcotest.test_case "in order" `Quick test_tcp_in_order;
          Alcotest.test_case "out of order" `Quick test_tcp_out_of_order;
          Alcotest.test_case "mid-stream join" `Quick test_tcp_midstream_join;
          Alcotest.test_case "duplicate" `Quick test_tcp_duplicate;
          Alcotest.test_case "overlap" `Quick test_tcp_overlap;
          Alcotest.test_case "syn" `Quick test_tcp_syn_establishes;
          Alcotest.test_case "gap resync" `Quick test_tcp_gap_resync;
          Alcotest.test_case "independent flows" `Quick test_tcp_two_flows_independent;
          Alcotest.test_case "seq wraparound" `Quick test_tcp_seq_wraparound;
          Alcotest.test_case "retransmission across wrap" `Quick
            test_tcp_retransmission_wraparound;
          Alcotest.test_case "fault plan: duplication+reorder" `Quick
            test_tcp_fault_duplication_reorder;
          Alcotest.test_case "fault plan: burst loss gap-accounted" `Quick
            test_tcp_fault_burst_loss_gap_accounted;
          QCheck_alcotest.to_alcotest prop_tcp_shuffled_segments;
          Alcotest.test_case "held segments are copies" `Quick test_tcp_slice_holds_copies;
        ] );
    ]
