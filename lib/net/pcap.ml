type packet = { time : float; orig_len : int; data : string }

exception Bad_format of string

let magic_us = 0xA1B2C3D4
let magic_ns = 0xA1B23C4D
let linktype_ethernet = 1

(* --- writing (little-endian, microsecond) --- *)

type sink = To_buffer of Buffer.t | To_channel of out_channel

type writer = { sink : sink; snaplen : int }

let put16le buf v =
  Buffer.add_char buf (Char.chr (v land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF))

let put32le buf v =
  put16le buf (v land 0xFFFF);
  put16le buf ((v lsr 16) land 0xFFFF)

let global_header snaplen =
  let buf = Buffer.create 24 in
  put32le buf magic_us;
  put16le buf 2;
  put16le buf 4;
  put32le buf 0 (* thiszone *);
  put32le buf 0 (* sigfigs *);
  put32le buf snaplen;
  put32le buf linktype_ethernet;
  Buffer.contents buf

let emit w s =
  match w.sink with To_buffer b -> Buffer.add_string b s | To_channel oc -> output_string oc s

let make_writer ?(snaplen = 65535) sink =
  let w = { sink; snaplen } in
  emit w (global_header snaplen);
  w

let writer_to_buffer ?snaplen b = make_writer ?snaplen (To_buffer b)
let writer_to_channel ?snaplen oc = make_writer ?snaplen (To_channel oc)

let write w ~time data =
  let sec = int_of_float (Float.floor time) in
  let usec = int_of_float (Float.round ((time -. Float.of_int sec) *. 1e6)) in
  let sec, usec = if usec >= 1_000_000 then (sec + 1, usec - 1_000_000) else (sec, usec) in
  let incl = min (String.length data) w.snaplen in
  let buf = Buffer.create (16 + incl) in
  put32le buf sec;
  put32le buf usec;
  put32le buf incl;
  put32le buf (String.length data);
  Buffer.add_substring buf data 0 incl;
  emit w (Buffer.contents buf)

(* --- reading --- *)

type slice = { time : float; orig_len : int; buf : string; off : int; len : int }

type source = From_string | From_channel of in_channel

type read_stats = {
  records : int;
  salvaged : int;
  skipped_bytes : int;
  resyncs : int;
  truncated_tail : bool;
}

(* Loss accounting lives on the obs registry (capture.* namespace);
   [read_stats] reads the counters back so existing callers see the
   same numbers a --metrics snapshot reports. *)
type reader = {
  source : source;
  (* Bytes read but not yet consumed are [buf.[lo .. hi-1]]. A channel
     reader refills one buffer in place, growing it only to fit the
     largest record; a string reader's buffer is the input itself and is
     never written. *)
  mutable buf : Bytes.t;
  mutable lo : int;
  mutable hi : int;
  big_endian : bool;
  nanosecond : bool;
  salvage : bool;
  c_records : Nt_obs.Obs.counter;
  c_salvaged : Nt_obs.Obs.counter;
  c_skipped : Nt_obs.Obs.counter;
  c_resyncs : Nt_obs.Obs.counter;
  c_truncated : Nt_obs.Obs.counter;
  mutable truncated_tail : bool;
  mutable last_sec : int;  (* timestamp of the last good record, for resync *)
}

let rec fill r ic n =
  r.hi - r.lo >= n
  ||
  let got = input ic r.buf r.hi (Bytes.length r.buf - r.hi) in
  got > 0
  && begin
       r.hi <- r.hi + got;
       fill r ic n
     end

(* Whether [n] unconsumed bytes are buffered, reading more if needed;
   false only at EOF. Refilling may move the bytes (offsets relative to
   [lo] survive), which is what invalidates the previous slice. *)
let available r n =
  r.hi - r.lo >= n
  ||
  match r.source with
  | From_string -> false
  | From_channel ic ->
      if r.lo + n > Bytes.length r.buf then begin
        let live = r.hi - r.lo in
        let dst =
          if n > Bytes.length r.buf then Bytes.create (max n (2 * Bytes.length r.buf)) else r.buf
        in
        Bytes.blit r.buf r.lo dst 0 live;
        r.buf <- dst;
        r.lo <- 0;
        r.hi <- live
      end;
      fill r ic n

let u32 ~be s pos =
  let b0 = Char.code s.[pos] and b1 = Char.code s.[pos + 1] in
  let b2 = Char.code s.[pos + 2] and b3 = Char.code s.[pos + 3] in
  if be then (b0 lsl 24) lor (b1 lsl 16) lor (b2 lsl 8) lor b3
  else (b3 lsl 24) lor (b2 lsl 16) lor (b1 lsl 8) lor b0

let make_reader ?obs ~salvage source buf ~hi =
  let obs = match obs with Some o -> o | None -> Nt_obs.Obs.create () in
  let r0 =
    {
      source;
      buf;
      lo = 0;
      hi;
      big_endian = false;
      nanosecond = false;
      salvage;
      c_records =
        Nt_obs.Obs.counter obs ~help:"pcap records successfully decoded" "capture.pcap_records";
      c_salvaged =
        Nt_obs.Obs.counter obs ~help:"pcap records recovered after resync"
          "capture.salvaged_records";
      c_skipped =
        Nt_obs.Obs.counter obs ~help:"bytes discarded while resyncing or at a cut-off tail"
          "capture.skipped_bytes";
      c_resyncs =
        Nt_obs.Obs.counter obs ~help:"times the salvage scanner re-acquired a record boundary"
          "capture.resyncs";
      c_truncated =
        Nt_obs.Obs.counter obs ~help:"captures that ended mid-record" "capture.truncated_tails";
      truncated_tail = false;
      last_sec = 0;
    }
  in
  if not (available r0 24) then raise (Bad_format "missing global header");
  let hdr = Bytes.unsafe_to_string r0.buf in
  let try_magic be =
    let m = u32 ~be hdr r0.lo in
    if m = magic_us then Some (be, false) else if m = magic_ns then Some (be, true) else None
  in
  let big_endian, nanosecond =
    match try_magic true with
    | Some r -> r
    | None -> (
        match try_magic false with Some r -> r | None -> raise (Bad_format "bad magic number"))
  in
  let linktype = u32 ~be:big_endian hdr (r0.lo + 20) in
  if linktype <> linktype_ethernet then
    raise (Bad_format (Printf.sprintf "unsupported linktype %d" linktype));
  { r0 with lo = r0.lo + 24; big_endian; nanosecond }

let reader_of_string ?obs ?(salvage = false) s =
  make_reader ?obs ~salvage From_string (Bytes.unsafe_of_string s) ~hi:(String.length s)

let reader_of_channel ?obs ?(salvage = false) ic =
  make_reader ?obs ~salvage (From_channel ic) (Bytes.create 65536) ~hi:0

let read_stats r =
  {
    records = Nt_obs.Obs.value r.c_records;
    salvaged = Nt_obs.Obs.value r.c_salvaged;
    skipped_bytes = Nt_obs.Obs.value r.c_skipped;
    resyncs = Nt_obs.Obs.value r.c_resyncs;
    truncated_tail = r.truncated_tail;
  }

let mark_truncated r =
  if not r.truncated_tail then begin
    r.truncated_tail <- true;
    Nt_obs.Obs.inc r.c_truncated
  end

(* Everything left is a cut-off tail. *)
let skip_tail r =
  Nt_obs.Obs.add r.c_skipped (r.hi - r.lo);
  r.lo <- r.hi;
  mark_truncated r

(* A header is plausible when its lengths are frame-sized and its
   fractional timestamp is in range — the resync test applied to each
   byte offset while salvaging past a corrupt record. *)
let max_salvage_record = 0x100000

let plausible r ~sec ~frac ~incl ~orig_len =
  (* A captured frame is never empty: incl = 0 would make runs of zero
     bytes (common inside NFS payloads) look like valid records. 14 is
     the bare Ethernet header. *)
  incl >= 14
  && incl <= max_salvage_record && orig_len >= incl
  && orig_len <= max_salvage_record
  && frac < (if r.nanosecond then 1_000_000_000 else 1_000_000)
  && (r.last_sec = 0 || abs (sec - r.last_sec) <= 30 * 86400)

(* The record header [at] bytes past the first unconsumed byte. *)
let parse_header r at =
  let be = r.big_endian and s = Bytes.unsafe_to_string r.buf and p = r.lo + at in
  (u32 ~be s p, u32 ~be s (p + 4), u32 ~be s (p + 8), u32 ~be s (p + 12))

let plausible_at r at =
  let sec, frac, incl, orig_len = parse_header r at in
  plausible r ~sec ~frac ~incl ~orig_len

(* Slide the 16-byte header window one byte forward at a time until it
   holds a plausible record header; everything slid past is counted.
   False at EOF, where the whole tail is unrecoverable. *)
let rec resync r =
  if not (available r 17) then begin
    skip_tail r;
    false
  end
  else begin
    r.lo <- r.lo + 1;
    Nt_obs.Obs.inc r.c_skipped;
    if plausible_at r 0 then begin
      Nt_obs.Obs.inc r.c_resyncs;
      true
    end
    else resync r
  end

(* Consume the record whose header is at [lo]. *)
let accept r ~salvaged =
  let sec, frac, incl, orig_len = parse_header r 0 in
  Nt_obs.Obs.inc r.c_records;
  if salvaged then Nt_obs.Obs.inc r.c_salvaged;
  r.last_sec <- sec;
  let scale = if r.nanosecond then 1e-9 else 1e-6 in
  let off = r.lo + 16 in
  r.lo <- off + incl;
  Some
    { time = Float.of_int sec +. (Float.of_int frac *. scale); orig_len;
      buf = Bytes.unsafe_to_string r.buf; off; len = incl }

(* Keep resyncing until a plausible header is followed by a full
   payload that ends at a record boundary — EOF or another plausible
   header. The double-validation rejects false positives that a single
   header test lets through (byte patterns inside packet payloads can
   parse as headers with large lengths and would swallow real records).
   A rejected candidate is slid past and the scan continues. *)
let rec salvage_from r =
  if not (resync r) then None
  else
    let _, _, incl, _ = parse_header r 0 in
    if available r (16 + incl) && ((not (available r (32 + incl))) || plausible_at r (16 + incl))
    then accept r ~salvaged:true
    else salvage_from r

let read_slice r =
  if not (available r 16) then begin
    (* EOF, or EOF mid-header: a capture cut off while writing a record. *)
    if r.hi > r.lo then skip_tail r;
    None
  end
  else begin
    let sec, frac, incl, orig_len = parse_header r 0 in
    if incl <= 0x4000000 && ((not r.salvage) || plausible r ~sec ~frac ~incl ~orig_len) then begin
      if available r (16 + incl) then accept r ~salvaged:false
      else begin
        (* EOF mid-packet: truncated final record. *)
        skip_tail r;
        None
      end
    end
    else if not r.salvage then raise (Bad_format "absurd packet length")
    else salvage_from r
  end

let read_next r =
  match read_slice r with
  | None -> None
  | Some s -> Some { time = s.time; orig_len = s.orig_len; data = String.sub s.buf s.off s.len }

let fold r f init =
  let rec go acc = match read_next r with None -> acc | Some p -> go (f acc p) in
  go init

let packets r =
  let rec next () = match read_next r with None -> Seq.Nil | Some p -> Seq.Cons (p, next) in
  next
