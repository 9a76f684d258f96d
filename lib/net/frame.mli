(** Ethernet / IPv4 / UDP / TCP frame construction and parsing.

    The simulator builds complete frames with these functions and the
    capture engine parses them back, so both directions are honest wire
    formats: big-endian fields, real IPv4 header checksums, correct
    length fields. Jumbo (9000-byte MTU) frames are just frames with a
    large payload — nothing special is required beyond not fragmenting.

    TCP here carries only what reassembly needs (ports, sequence number,
    SYN/FIN flags); window/urgent/options are fixed benign values. *)

type transport =
  | Udp of { src_port : int; dst_port : int; payload : string }
  | Tcp of { src_port : int; dst_port : int; seq : int; syn : bool; fin : bool; payload : string }

type t = {
  src_mac : string;  (** 6 bytes *)
  dst_mac : string;  (** 6 bytes *)
  src_ip : Ip_addr.t;
  dst_ip : Ip_addr.t;
  transport : transport;
}

val default_src_mac : string
val default_dst_mac : string

val udp : ?src_mac:string -> ?dst_mac:string -> src_ip:Ip_addr.t -> dst_ip:Ip_addr.t ->
  src_port:int -> dst_port:int -> string -> t

val tcp : ?src_mac:string -> ?dst_mac:string -> ?syn:bool -> ?fin:bool -> src_ip:Ip_addr.t ->
  dst_ip:Ip_addr.t -> src_port:int -> dst_port:int -> seq:int -> string -> t

val encode : t -> string
(** Full Ethernet frame bytes. *)

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
  mutable checksum_ok : bool;  (** the IPv4 header checksum verifies *)
}
(** A parsed frame whose payload stays where it was read, overwritten
    by one decoder frame after frame. [payload_off] is the absolute
    offset of the payload in the decoded string; [tcp_seq] and the two
    flags are meaningful for TCP only. *)

val scratch : unit -> scratch

val decode_into : scratch -> string -> off:int -> len:int -> (unit, string) result
(** Parse the frame in [s.[off .. off+len-1]] into [h] without copying
    it: the payload is a range of [s]. [Error] describes why the frame
    was rejected (non-IPv4 ethertype, truncation, bad header length,
    unsupported protocol), and [h] then holds a partial parse. The
    capture engine counts and skips rejected frames. Only an
    unsupported protocol's [Error] allocates. *)

val decode : string -> (t, string) result
(** {!decode_into} a fresh scratch over a whole string, copying the
    MACs and the payload out. *)

val header_checksum_ok : string -> bool
(** Verify the IPv4 header checksum of an encoded frame. [true] when
    the checksum verifies {e or} {!decode} rejects the frame (a
    structural failure is its to report); [false] means the
    frame parsed but its header bytes were corrupted in flight — the
    capture engine counts these separately from undecodable frames
    (it reads the same verdict from {!scratch.checksum_ok}). *)

val ipv4_checksum : string -> pos:int -> len:int -> int
(** One's-complement checksum over a header region, exposed for tests. *)
