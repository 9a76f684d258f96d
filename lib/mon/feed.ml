module Record = Nt_trace.Record
module Obs = Nt_obs.Obs

type pull_result = [ `Record of Record.t | `Idle | `Closed ]

type t = {
  pull_fn : unit -> pull_result;
  pos_fn : unit -> int64 option;
  seek_fn : int64 -> bool;
  close_fn : unit -> unit;
  describe : string;
}

let pull t = t.pull_fn ()
let pos t = t.pos_fn ()
let seek t off = t.seek_fn off
let describe t = t.describe
let close t = t.close_fn ()

let of_fn ?(describe = "fn") ?(pos = fun () -> None) ?(seek = fun _ -> false)
    ?(close = fun () -> ()) pull_fn =
  { pull_fn; pos_fn = pos; seek_fn = seek; close_fn = close; describe }

let of_records seq =
  let cursor = ref seq in
  of_fn ~describe:"records" (fun () ->
      match !cursor () with
      | Seq.Nil -> `Closed
      | Seq.Cons (r, rest) ->
          cursor := rest;
          `Record r)

(* --- shared file-tail plumbing --- *)

type counters = {
  c_parse_errors : Obs.counter;
  c_reopens : Obs.counter;
  c_open_failures : Obs.counter;
  c_bytes : Obs.counter;
}

let counters obs =
  {
    c_parse_errors = Obs.counter obs ~help:"malformed feed input units skipped" "mon.feed.parse_errors";
    c_reopens = Obs.counter obs ~help:"tailed file reopened after truncation" "mon.feed.reopens";
    c_open_failures = Obs.counter obs ~help:"feed file open attempts that failed" "mon.feed.open_failures";
    c_bytes = Obs.counter obs ~help:"feed bytes consumed" "mon.feed.bytes";
  }

(* A tailed file: [pending] holds bytes read from the fd but not yet
   consumed as complete input units. [consumed] is the parse offset —
   the boundary of the last complete unit decoded. [delivered] lags it:
   the offset after the last record actually handed to the caller, so
   a checkpoint taken between parse and delivery still replays the
   records sitting in the feed's own queue. *)
type tail = {
  path : string;
  cs : counters;
  mutable fd : Unix.file_descr option;
  mutable ino : int;  (* inode the fd reads; rotation detection *)
  mutable pending : string;
  chunk : Bytes.t;  (* read buffer, reused by every fill *)
  mutable consumed : int64;
  mutable delivered : int64;
  mutable read_off : int64;  (* fd offset = consumed + pending length *)
}

let chunk_size = 65536

let tail_create ~obs path =
  {
    path;
    cs = counters obs;
    fd = None;
    ino = -1;
    pending = "";
    chunk = Bytes.create chunk_size;
    consumed = 0L;
    delivered = 0L;
    read_off = 0L;
  }

let tail_close t =
  (match t.fd with Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ()) | None -> ());
  t.fd <- None

let tail_reset t =
  tail_close t;
  t.ino <- -1;
  t.pending <- "";
  t.consumed <- 0L;
  t.delivered <- 0L;
  t.read_off <- 0L

let tail_ensure_open t =
  match t.fd with
  | Some fd -> Some fd
  | None -> (
      match Unix.openfile t.path [ Unix.O_RDONLY ] 0 with
      | fd ->
          (try ignore (Unix.LargeFile.lseek fd t.read_off Unix.SEEK_SET)
           with Unix.Unix_error _ -> ());
          (try t.ino <- (Unix.LargeFile.fstat fd).Unix.LargeFile.st_ino
           with Unix.Unix_error _ -> ());
          t.fd <- Some fd;
          Some fd
      | exception Unix.Unix_error _ ->
          Obs.inc t.cs.c_open_failures;
          None)

(* Pull more bytes off the file; true when anything new arrived.
   Detects truncation (file now shorter than what we consumed) and
   rotation (the path now names a different inode) and starts over,
   counting the reopen. *)
let rec tail_fill t =
  match tail_ensure_open t with
  | None -> false
  | Some fd -> (
      let truncated =
        match Unix.LargeFile.fstat fd with
        | st -> st.Unix.LargeFile.st_size < t.read_off
        | exception Unix.Unix_error _ -> false
      in
      let rotated =
        match Unix.LargeFile.stat t.path with
        | st -> st.Unix.LargeFile.st_ino <> t.ino
        | exception Unix.Unix_error _ -> false
      in
      if truncated || rotated then begin
        Obs.inc t.cs.c_reopens;
        tail_reset t;
        (* retry once against the fresh file; reset leaves fd closed, so
           the recursive call reopens at offset 0 and cannot loop *)
        tail_fill t
      end
      else
        match Unix.read fd t.chunk 0 chunk_size with
        | 0 -> false
        | n ->
            (* one allocation per fill: the unparsed tail, then the new bytes *)
            let p = String.length t.pending in
            let b = Bytes.create (p + n) in
            Bytes.blit_string t.pending 0 b 0 p;
            Bytes.blit t.chunk 0 b p n;
            t.pending <- Bytes.unsafe_to_string b;
            t.read_off <- Int64.add t.read_off (Int64.of_int n);
            true
        | exception Unix.Unix_error _ -> false)

(* Count [n] more bytes as parsed; [tail_drop] trims them off [pending]. *)
let tail_advance t n =
  t.consumed <- Int64.add t.consumed (Int64.of_int n);
  Obs.add t.cs.c_bytes n

let tail_drop t n =
  if n > 0 then t.pending <- String.sub t.pending n (String.length t.pending - n)

let tail_consume t n =
  tail_advance t n;
  tail_drop t n

let tail_seek t off =
  tail_reset t;
  t.consumed <- off;
  t.delivered <- off;
  t.read_off <- off;
  match tail_ensure_open t with Some _ -> true | None -> true
(* an absent file is fine: the offset sticks and applies on open *)

(* --- text trace tail --- *)

let trace_tail ?obs path =
  let obs = match obs with Some o -> o | None -> Obs.create () in
  let t = tail_create ~obs path in
  (* Each queued record carries the parse offset just past its line, so
     [pos] can report the boundary of the last *delivered* record rather
     than the last *parsed* one. *)
  let queue = Queue.create () in
  (* Lines are parsed in place as slices of [pending], which is
     trimmed once at the end rather than once per line. *)
  let parse_complete_lines () =
    let p = t.pending in
    let pos = ref 0 in
    let continue = ref true in
    while !continue do
      match String.index_from_opt p !pos '\n' with
      | None -> continue := false
      | Some i ->
          let len = i - !pos in
          tail_advance t (len + 1);
          (if len > 0 then
             match Record.parse_slice p ~pos:!pos ~len with
             | Ok r -> Queue.push (r, t.consumed) queue
             | Error _ -> Obs.inc t.cs.c_parse_errors);
          pos := i + 1
    done;
    tail_drop t !pos
  in
  let rec pull_fn () =
    match Queue.take_opt queue with
    | Some (r, off) ->
        t.delivered <- off;
        `Record r
    | None ->
    if tail_fill t then begin
      parse_complete_lines ();
      if Queue.is_empty queue then `Idle else pull_fn ()
    end
    else `Idle
  in
  of_fn ~describe:("trace:" ^ path)
    ~pos:(fun () -> Some t.delivered)
    ~seek:(fun off ->
      Queue.clear queue;
      tail_seek t off)
    ~close:(fun () -> tail_close t)
    pull_fn

(* --- pcap tail --- *)

let magic_us = 0xA1B2C3D4
let magic_ns = 0xA1B23C4D
let pcap_global_header = 24
let pcap_record_header = 16
let max_frame = 1 lsl 18 (* longer claimed frames are treated as corruption *)

type pcap_state = {
  mutable header_seen : bool;
  mutable big_endian : bool;
  mutable nanosecond : bool;
}

let u32 ~be s off =
  let b i = Char.code s.[off + i] in
  if be then (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3
  else (b 3 lsl 24) lor (b 2 lsl 16) lor (b 1 lsl 8) lor b 0

let pcap_tail ?obs path =
  let obs = match obs with Some o -> o | None -> Obs.create () in
  let t = tail_create ~obs path in
  let queue = Queue.create () in
  (* Records emit synchronously from [feed_packet], after the frame's
     bytes were consumed, so [t.consumed] here is the offset just past
     the packet that completed the record. *)
  let cap = Nt_trace.Capture.create ~obs ~emit:(fun r -> Queue.push (r, t.consumed) queue) () in
  let st = { header_seen = false; big_endian = false; nanosecond = false } in
  let try_header () =
    if String.length t.pending >= pcap_global_header then begin
      let detect be =
        let m = u32 ~be t.pending 0 in
        if m = magic_us then Some (be, false)
        else if m = magic_ns then Some (be, true)
        else None
      in
      (match detect true with
      | Some (be, ns) ->
          st.big_endian <- be;
          st.nanosecond <- ns
      | None -> (
          match detect false with
          | Some (be, ns) ->
              st.big_endian <- be;
              st.nanosecond <- ns
          | None ->
              (* Unrecognized magic: treat as microsecond little-endian
                 and let per-record sanity checks resync. *)
              Obs.inc t.cs.c_parse_errors));
      st.header_seen <- true;
      tail_consume t pcap_global_header
    end
  in
  (* Frames go to the capture as slices of [pending], which is trimmed
     once at the end rather than once per frame. *)
  let parse_records () =
    let p = t.pending in
    let pos = ref 0 in
    let continue = ref true in
    while !continue do
      if String.length p - !pos < pcap_record_header then continue := false
      else begin
        let be = st.big_endian in
        let ts_sec = u32 ~be p !pos in
        let ts_frac = u32 ~be p (!pos + 4) in
        let incl_len = u32 ~be p (!pos + 8) in
        if incl_len > max_frame then begin
          (* Corrupt length: slide one byte and retry — the salvage
             strategy of the batch reader, minus its double
             validation, kept cheap for the hot tail path. *)
          Obs.inc t.cs.c_parse_errors;
          tail_advance t 1;
          incr pos
        end
        else if String.length p - !pos < pcap_record_header + incl_len then
          continue := false
        else begin
          let time =
            Float.of_int ts_sec
            +. (Float.of_int ts_frac /. if st.nanosecond then 1e9 else 1e6)
          in
          let off = !pos + pcap_record_header in
          pos := off + incl_len;
          tail_advance t (pcap_record_header + incl_len);
          Nt_trace.Capture.feed_slice cap ~time p ~off ~len:incl_len
        end
      end
    done;
    tail_drop t !pos
  in
  let rec pull_fn () =
    match Queue.take_opt queue with
    | Some (r, off) ->
        t.delivered <- off;
        `Record r
    | None ->
    if tail_fill t then begin
      if not st.header_seen then try_header ();
      if st.header_seen then parse_records ();
      if Queue.is_empty queue then `Idle else pull_fn ()
    end
    else `Idle
  in
  of_fn ~describe:("pcap:" ^ path)
    ~pos:(fun () -> if st.header_seen then Some t.delivered else None)
    ~seek:(fun off ->
      (* Resuming mid-capture: the global header was consumed before the
         checkpoint, so mark it seen but re-learn byte order from the
         file's first bytes when available. *)
      Queue.clear queue;
      let ok = tail_seek t off in
      if off = 0L then st.header_seen <- false
      else (match Unix.openfile path [ Unix.O_RDONLY ] 0 with
         | fd ->
             let hdr = Bytes.create pcap_global_header in
             let n = try Unix.read fd hdr 0 pcap_global_header with Unix.Unix_error _ -> 0 in
             (try Unix.close fd with Unix.Unix_error _ -> ());
             if n = pcap_global_header then begin
               let s = Bytes.to_string hdr in
               let m_be = u32 ~be:true s 0 and m_le = u32 ~be:false s 0 in
               if m_be = magic_us || m_be = magic_ns then begin
                 st.big_endian <- true;
                 st.nanosecond <- m_be = magic_ns
               end
               else if m_le = magic_us || m_le = magic_ns then begin
                 st.big_endian <- false;
                 st.nanosecond <- m_le = magic_ns
               end
             end;
             st.header_seen <- true
         | exception Unix.Unix_error _ -> st.header_seen <- true);
      ok)
    ~close:(fun () ->
      ignore (Nt_trace.Capture.finish cap);
      tail_close t)
    pull_fn

(* --- tbin tail --- *)

let tbin_tail ?obs path =
  let obs = match obs with Some o -> o | None -> Obs.create () in
  let t = tail_create ~obs path in
  (* The frame decoder owns resync and failure counting; its failure
     total is mirrored onto mon.feed.parse_errors so feed dashboards
     need not know the source format. Replay offsets come from the
     decoder: frame end for the last record of a frame, frame start
     before that — at-least-once at frame granularity. *)
  let d = Nt_tbin.Decoder.create ~obs () in
  let failures_seen = ref 0 in
  let mirror_failures () =
    let f = Nt_tbin.failures (Nt_tbin.Decoder.stats d) in
    if f > !failures_seen then begin
      Obs.add t.cs.c_parse_errors (f - !failures_seen);
      failures_seen := f
    end
  in
  let rec pull_fn () =
    match Nt_tbin.Decoder.next d with
    | Some (r, off) ->
        t.delivered <- off;
        `Record r
    | None ->
        if tail_fill t then begin
          let chunk = t.pending in
          tail_consume t (String.length chunk);
          Nt_tbin.Decoder.feed d chunk;
          mirror_failures ();
          pull_fn ()
        end
        else `Idle
  in
  of_fn ~describe:("tbin:" ^ path)
    ~pos:(fun () -> Some t.delivered)
    ~seek:(fun off ->
      let ok = tail_seek t off in
      Nt_tbin.Decoder.reset_at d off;
      ok)
    ~close:(fun () -> tail_close t)
    pull_fn
