type transport =
  | Udp of { src_port : int; dst_port : int; payload : string }
  | Tcp of { src_port : int; dst_port : int; seq : int; syn : bool; fin : bool; payload : string }

type t = {
  src_mac : string;
  dst_mac : string;
  src_ip : Ip_addr.t;
  dst_ip : Ip_addr.t;
  transport : transport;
}

let default_src_mac = "\x02\x00\x00\x00\x00\x01"
let default_dst_mac = "\x02\x00\x00\x00\x00\x02"
let ethertype_ipv4 = 0x0800
let proto_tcp = 6
let proto_udp = 17

let udp ?(src_mac = default_src_mac) ?(dst_mac = default_dst_mac) ~src_ip ~dst_ip ~src_port
    ~dst_port payload =
  { src_mac; dst_mac; src_ip; dst_ip; transport = Udp { src_port; dst_port; payload } }

let tcp ?(src_mac = default_src_mac) ?(dst_mac = default_dst_mac) ?(syn = false) ?(fin = false)
    ~src_ip ~dst_ip ~src_port ~dst_port ~seq payload =
  { src_mac; dst_mac; src_ip; dst_ip; transport = Tcp { src_port; dst_port; seq; syn; fin; payload } }

let set16 b pos v =
  Bytes.set b pos (Char.chr ((v lsr 8) land 0xFF));
  Bytes.set b (pos + 1) (Char.chr (v land 0xFF))

let set32 b pos v =
  set16 b pos ((v lsr 16) land 0xFFFF);
  set16 b (pos + 2) (v land 0xFFFF)

let get8 s pos = Char.code s.[pos]
let get16 s pos = (get8 s pos lsl 8) lor get8 s (pos + 1)
let get32 s pos = (get16 s pos lsl 16) lor get16 s (pos + 2)

let ipv4_checksum s ~pos ~len =
  let sum = ref 0 in
  let i = ref 0 in
  while !i + 1 < len do
    sum := !sum + get16 s (pos + !i);
    i := !i + 2
  done;
  if len land 1 = 1 then sum := !sum + (get8 s (pos + len - 1) lsl 8);
  let s = ref !sum in
  while !s lsr 16 <> 0 do
    s := (!s land 0xFFFF) + (!s lsr 16)
  done;
  lnot !s land 0xFFFF

let encode t =
  let payload, proto, transport_len =
    match t.transport with
    | Udp { payload; _ } -> (payload, proto_udp, 8 + String.length payload)
    | Tcp { payload; _ } -> (payload, proto_tcp, 20 + String.length payload)
  in
  let ip_len = 20 + transport_len in
  let b = Bytes.make (14 + ip_len) '\000' in
  Bytes.blit_string t.dst_mac 0 b 0 6;
  Bytes.blit_string t.src_mac 0 b 6 6;
  set16 b 12 ethertype_ipv4;
  (* IPv4 header *)
  let ip = 14 in
  Bytes.set b ip '\x45';
  set16 b (ip + 2) ip_len;
  Bytes.set b (ip + 8) '\x40' (* TTL 64 *);
  Bytes.set b (ip + 9) (Char.chr proto);
  set32 b (ip + 12) t.src_ip;
  set32 b (ip + 16) t.dst_ip;
  let cksum = ipv4_checksum (Bytes.unsafe_to_string b) ~pos:ip ~len:20 in
  set16 b (ip + 10) cksum;
  (* Transport header + payload *)
  let tp = ip + 20 in
  (match t.transport with
  | Udp { src_port; dst_port; payload } ->
      set16 b tp src_port;
      set16 b (tp + 2) dst_port;
      set16 b (tp + 4) (8 + String.length payload);
      Bytes.blit_string payload 0 b (tp + 8) (String.length payload)
  | Tcp { src_port; dst_port; seq; syn; fin; payload } ->
      set16 b tp src_port;
      set16 b (tp + 2) dst_port;
      set32 b (tp + 4) (seq land 0xFFFFFFFF);
      (* data offset 5 words, flags: ACK always, SYN/FIN as requested *)
      Bytes.set b (tp + 12) '\x50';
      let flags = 0x10 lor (if syn then 0x02 else 0) lor if fin then 0x01 else 0 in
      Bytes.set b (tp + 13) (Char.chr flags);
      set16 b (tp + 14) 0xFFFF (* window *);
      Bytes.blit_string payload 0 b (tp + 20) (String.length payload));
  ignore payload;
  Bytes.unsafe_to_string b

let unsupported_protocol proto = Error (Printf.sprintf "unsupported IP protocol %d" proto)
[@@nt.alloc_ok "formats the rejection of a non-UDP/TCP frame; never reached by NFS traffic"]

type scratch = {
  mutable ip_src : Ip_addr.t;
  mutable ip_dst : Ip_addr.t;
  mutable is_tcp : bool;
  mutable sport : int;
  mutable dport : int;
  mutable tcp_seq : int;
  mutable tcp_syn : bool;
  mutable tcp_fin : bool;
  mutable payload_off : int;
  mutable payload_len : int;
  mutable checksum_ok : bool;
}

let scratch () =
  { ip_src = 0; ip_dst = 0; is_tcp = false; sport = 0; dport = 0; tcp_seq = 0; tcp_syn = false;
    tcp_fin = false; payload_off = 0; payload_len = 0; checksum_ok = false }

let decode_into (h : scratch) s ~off ~len =
  if off < 0 || len < 0 || off > String.length s - len then Error "slice out of bounds"
  else if len < 34 then Error "frame too short"
  else if get16 s (off + 12) <> ethertype_ipv4 then Error "not IPv4"
  else begin
    let ip = off + 14 in
    let vihl = get8 s ip in
    if vihl lsr 4 <> 4 then Error "not IP version 4"
    else begin
      let ihl = (vihl land 0xF) * 4 in
      if ihl < 20 then Error "bad IP header length"
      else begin
        let total = get16 s (ip + 2) in
        if 14 + total > len || total < ihl then Error "truncated IP packet"
        else begin
          let proto = get8 s (ip + 9) in
          h.ip_src <- get32 s (ip + 12);
          h.ip_dst <- get32 s (ip + 16);
          h.checksum_ok <- ipv4_checksum s ~pos:ip ~len:ihl = 0;
          let tp = ip + ihl in
          let ip_end = ip + total in
          if proto = proto_udp then begin
            if ip_end - tp < 8 then Error "truncated UDP header"
            else begin
              let udp_len = get16 s (tp + 4) in
              if tp + udp_len > ip_end || udp_len < 8 then Error "bad UDP length"
              else begin
                h.is_tcp <- false;
                h.sport <- get16 s tp;
                h.dport <- get16 s (tp + 2);
                h.tcp_seq <- 0;
                h.tcp_syn <- false;
                h.tcp_fin <- false;
                h.payload_off <- tp + 8;
                h.payload_len <- udp_len - 8;
                Ok ()
              end
            end
          end
          else if proto = proto_tcp then begin
            if ip_end - tp < 20 then Error "truncated TCP header"
            else begin
              let doff = (get8 s (tp + 12) lsr 4) * 4 in
              if doff < 20 || tp + doff > ip_end then Error "bad TCP data offset"
              else begin
                let flags = get8 s (tp + 13) in
                h.is_tcp <- true;
                h.sport <- get16 s tp;
                h.dport <- get16 s (tp + 2);
                h.tcp_seq <- get32 s (tp + 4);
                h.tcp_syn <- flags land 0x02 <> 0;
                h.tcp_fin <- flags land 0x01 <> 0;
                h.payload_off <- tp + doff;
                h.payload_len <- ip_end - tp - doff;
                Ok ()
              end
            end
          end
          else unsupported_protocol proto
        end
      end
    end
  end

let header_checksum_ok s =
  let h = scratch () in
  match decode_into h s ~off:0 ~len:(String.length s) with
  | Ok () -> h.checksum_ok
  | Error _ -> true

let decode s =
  let h = scratch () in
  match decode_into h s ~off:0 ~len:(String.length s) with
  | Error e -> Error e
  | Ok () ->
      let payload = String.sub s h.payload_off h.payload_len in
      let transport =
        if h.is_tcp then
          Tcp { src_port = h.sport; dst_port = h.dport; seq = h.tcp_seq; syn = h.tcp_syn;
                fin = h.tcp_fin; payload }
        else Udp { src_port = h.sport; dst_port = h.dport; payload }
      in
      Ok { src_mac = String.sub s 6 6; dst_mac = String.sub s 0 6; src_ip = h.ip_src;
           dst_ip = h.ip_dst; transport }
[@@nt.alloc_ok "the copying adapter over decode_into: materializes MACs and the payload for \
                callers that keep a Frame.t beyond the buffer it was read from"]
