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

type read_stats = {
  records : int;
  salvaged : int;
  skipped_bytes : int;
  resyncs : int;
  truncated_tail : bool;
}

(* One parser, [next], serves both drivers: a channel reader refills
   [win] in place ([read_slice]), the monitor's tail pushes file bytes
   into it ([parse]), and a string reader's window is the input itself.
   [next] answers [More] whenever the verdict depends on bytes not read
   yet; only [eof] makes a short tail a truncation. Loss accounting
   lives on the obs registry (capture.* namespace); [read_stats] reads
   it back. *)
type record = {
  mutable time : float;
  mutable orig_len : int;
  mutable buf : string;
  mutable off : int;
  mutable len : int;
}

type reader = {
  ic : in_channel option;
  win : Window.t;
  mutable eof : bool;  (* no byte will follow the window's *)
  mutable header_ok : bool;
  mutable big_endian : bool;
  mutable nanosecond : bool;
  salvage : bool;
  mutable scanning : bool;  (* resyncing past a rejected record header *)
  mutable candidate : bool;  (* [head] holds a plausible header not yet double-validated *)
  mutable resume : int;  (* stream offset to continue at after the global header *)
  mutable bad_headers : int;
  c_records : Nt_obs.Obs.counter;
  c_salvaged : Nt_obs.Obs.counter;
  c_skipped : Nt_obs.Obs.counter;
  c_resyncs : Nt_obs.Obs.counter;
  c_truncated : Nt_obs.Obs.counter;
  mutable truncated_tail : bool;
  mutable last_sec : int;  (* timestamp of the last good record, for resync *)
  cur : record;  (* the record [Got] accepted, overwritten by the next *)
}

type step = Got | More | Absurd

let u32 ~be s pos =
  let b0 = Char.code s.[pos] and b1 = Char.code s.[pos + 1] in
  let b2 = Char.code s.[pos + 2] and b3 = Char.code s.[pos + 3] in
  if be then (b0 lsl 24) lor (b1 lsl 16) lor (b2 lsl 8) lor b3
  else (b3 lsl 24) lor (b2 lsl 16) lor (b1 lsl 8) lor b0

let is_magic m = m = magic_us || m = magic_ns

let has_magic s =
  String.length s >= 4 && (is_magic (u32 ~be:true s 0) || is_magic (u32 ~be:false s 0))

(* Learn byte order and tick unit from the global header at [head].
   Returns its linktype, or -1 when the magic is unknown (the reader
   then keeps microsecond little-endian). *)
let learn_order r ~be =
  let m = u32 ~be (Bytes.unsafe_to_string r.win.buf) r.win.head in
  is_magic m
  && begin
       r.big_endian <- be;
       r.nanosecond <- m = magic_ns;
       true
     end

let global_header r =
  if learn_order r ~be:true || learn_order r ~be:false then
    u32 ~be:r.big_endian (Bytes.unsafe_to_string r.win.buf) (r.win.head + 20)
  else -1

let make_reader ?obs ~salvage ic win =
  let obs = match obs with Some o -> o | None -> Nt_obs.Obs.create () in
  let counter help name = Nt_obs.Obs.counter obs ~help name in
  {
    ic;
    win;
    eof = false;
    header_ok = false;
    big_endian = false;
    nanosecond = false;
    salvage;
    scanning = false;
    candidate = false;
    resume = 0;
    bad_headers = 0;
    c_records = counter "pcap records successfully decoded" "capture.pcap_records";
    c_salvaged = counter "pcap records recovered after resync" "capture.salvaged_records";
    c_skipped =
      counter "bytes discarded while resyncing or at a cut-off tail" "capture.skipped_bytes";
    c_resyncs = counter "times the salvage scanner re-acquired a record boundary" "capture.resyncs";
    c_truncated = counter "captures that ended mid-record" "capture.truncated_tails";
    truncated_tail = false;
    last_sec = 0;
    cur = { time = 0.; orig_len = 0; buf = ""; off = 0; len = 0 };
  }

(* The batch readers check the global header up front and raise on it. *)
let open_reader ?obs ~salvage ic win =
  let r = make_reader ?obs ~salvage ic win in
  Option.iter (fun ic -> while Window.length win < 24 && Window.input win ic > 0 do () done) ic;
  if Window.length win < 24 then raise (Bad_format "missing global header");
  (match global_header r with
  | -1 -> raise (Bad_format "bad magic number")
  | 1 (* Ethernet *) -> ()
  | linktype -> raise (Bad_format (Printf.sprintf "unsupported linktype %d" linktype)));
  Window.drop win 24;
  r.header_ok <- true;
  r

(* A string reader's window is the input itself, never written. *)
let reader_of_string ?obs ?(salvage = false) s =
  let win = { Window.buf = Bytes.unsafe_of_string s; head = 0; tail = String.length s; pos = 0 } in
  open_reader ?obs ~salvage None win

let reader_of_channel ?obs ?(salvage = false) ic =
  open_reader ?obs ~salvage (Some ic) (Window.create Window.chunk)

let create ?obs () = make_reader ?obs ~salvage:true None (Window.create Window.chunk)

let read_stats r =
  {
    records = Nt_obs.Obs.value r.c_records;
    salvaged = Nt_obs.Obs.value r.c_salvaged;
    skipped_bytes = Nt_obs.Obs.value r.c_skipped;
    resyncs = Nt_obs.Obs.value r.c_resyncs;
    truncated_tail = r.truncated_tail;
  }

let failures r =
  Nt_obs.Obs.value r.c_resyncs + Nt_obs.Obs.value r.c_truncated + r.bad_headers

let mark_truncated r =
  if not r.truncated_tail then begin
    r.truncated_tail <- true;
    Nt_obs.Obs.inc r.c_truncated
  end

(* Everything left is a cut-off tail. *)
let skip_tail r =
  Nt_obs.Obs.add r.c_skipped (Window.length r.win);
  Window.drop r.win (Window.length r.win);
  mark_truncated r

(* Too few bytes for the next verdict: wait, or at EOF (a capture cut
   off while writing a record) count them as a cut-off tail. *)
let short r =
  if r.eof && Window.length r.win > 0 then skip_tail r;
  More

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

(* Word [k] of the record header [at] bytes past the first unconsumed
   byte: 0 seconds, 1 fraction, 2 included length, 3 original length. *)
let field r at k =
  u32 ~be:r.big_endian (Bytes.unsafe_to_string r.win.buf) (r.win.head + at + (4 * k))

let plausible_at r at =
  plausible r ~sec:(field r at 0) ~frac:(field r at 1) ~incl:(field r at 2)
    ~orig_len:(field r at 3)

(* Consume the record whose header is at [head] into [cur]. *)
let accept r ~salvaged =
  let sec = field r 0 0 and frac = field r 0 1 and incl = field r 0 2 and c = r.cur in
  Nt_obs.Obs.inc r.c_records;
  if salvaged then Nt_obs.Obs.inc r.c_salvaged;
  r.last_sec <- sec;
  let scale = if r.nanosecond then 1e-9 else 1e-6 in
  c.time <- Float.of_int sec +. (Float.of_int frac *. scale);
  c.orig_len <- field r 0 3;
  c.buf <- Bytes.unsafe_to_string r.win.buf;
  c.off <- r.win.head + 16;
  c.len <- incl;
  Window.drop r.win (16 + incl);
  Got

(* Decode at most one record. Salvage slides the 16-byte header window
   one byte at a time until it holds a plausible record header, and
   accepts that candidate only when a full payload follows it and ends
   at a record boundary — EOF or another plausible header. The double
   validation rejects false positives that a single header test lets
   through (byte patterns inside packet payloads can parse as headers
   with large lengths and would swallow real records); a rejected
   candidate is slid past and the scan continues. Everything slid past
   is counted. [scanning] and [candidate] keep the scan's place while
   it waits for bytes. *)
let rec next r =
  let avail = Window.length r.win in
  if not r.header_ok then
    if avail >= 24 then begin
      if global_header r <> linktype_ethernet then r.bad_headers <- r.bad_headers + 1;
      r.header_ok <- true;
      Window.drop r.win 24;
      if r.resume > r.win.pos then Window.reset_at r.win r.resume;
      next r
    end
    else short r
  else if r.candidate then validate r
  else if r.scanning then slide r
  else if avail < 16 then short r
  else begin
    let incl = field r 0 2 in
    if incl <= 0x4000000 && ((not r.salvage) || plausible_at r 0) then
      if avail >= 16 + incl then accept r ~salvaged:false else short r
    else if not r.salvage then Absurd
    else begin
      r.scanning <- true;
      slide r
    end
  end

and slide r =
  if Window.length r.win < 17 then short r
  else begin
    Window.drop r.win 1;
    Nt_obs.Obs.inc r.c_skipped;
    if plausible_at r 0 then begin
      Nt_obs.Obs.inc r.c_resyncs;
      r.candidate <- true;
      validate r
    end
    else slide r
  end

and validate r =
  let avail = Window.length r.win and incl = field r 0 2 in
  if avail < 32 + incl && not r.eof then More
  else begin
    r.candidate <- false;
    if avail >= 16 + incl && (avail < 32 + incl || plausible_at r (16 + incl)) then begin
      r.scanning <- false;
      accept r ~salvaged:true
    end
    else slide r
  end

let rec advance r =
  match next r with
  | Got -> true
  | Absurd -> raise (Bad_format "absurd packet length")
  | More when r.eof -> false
  | More ->
      (match r.ic with Some ic when Window.input r.win ic > 0 -> () | _ -> r.eof <- true);
      advance r

let record r = r.cur

let slice { cur = c; _ } : slice =
  { time = c.time; orig_len = c.orig_len; buf = c.buf; off = c.off; len = c.len }

let read_slice r = if advance r then Some (slice r) else None

let window r = r.win

let rec parse r emit =
  match next r with
  | Got ->
      emit (slice r) r.win.pos;
      parse r emit
  | More | Absurd -> ()

let reset_at r off =
  Window.reset_at r.win 0;
  r.eof <- false;
  r.header_ok <- false;
  r.big_endian <- false;
  r.nanosecond <- false;
  r.scanning <- false;
  r.candidate <- false;
  r.resume <- off;
  r.truncated_tail <- false;
  r.last_sec <- 0

let read_next r =
  if advance r then
    let c = r.cur in
    Some { time = c.time; orig_len = c.orig_len; data = String.sub c.buf c.off c.len }
  else None

let packets r =
  let rec next () = match read_next r with None -> Seq.Nil | Some p -> Seq.Cons (p, next) in
  next
