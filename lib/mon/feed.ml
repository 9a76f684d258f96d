module Record = Nt_trace.Record
module Obs = Nt_obs.Obs

type pull_result = [ `Record of Record.t | `Idle | `Closed ]

type t = {
  pull_fn : unit -> pull_result;
  pos_fn : unit -> int64 option;
  seek_fn : int64 -> bool;
  close_fn : unit -> unit;
}

let pull t = t.pull_fn ()
let pos t = t.pos_fn ()
let seek t off = t.seek_fn off
let close t = t.close_fn ()

let of_fn ?(pos = fun () -> None) ?(seek = fun _ -> false) ?(close = fun () -> ()) pull_fn =
  { pull_fn; pos_fn = pos; seek_fn = seek; close_fn = close }

let of_records seq =
  let cursor = ref seq in
  of_fn (fun () ->
      match !cursor () with
      | Seq.Nil -> `Closed
      | Seq.Cons (r, rest) ->
          cursor := rest;
          `Record r)

(* --- file tails --- *)

module Window = Nt_net.Window
module Pcap = Nt_net.Pcap
module Capture = Nt_trace.Capture

(* A format's decoder as the tail drives it — the same decoder the
   batch readers drive, which owns all parsing, resync and failure
   accounting. The tail reads file bytes straight into [win]; [parse]
   decodes every complete unit there, emitting records with their
   replay offsets; [reset_at] restarts at a stream offset (0 re-expects
   the stream header); [failures] is the decoder's running count. *)
type decoder = {
  win : Window.t;
  parse : unit -> unit;
  reset_at : int -> unit;
  failures : unit -> int;
}

(* A tailed file. The window's [stream_end] is how far into the stream
   the tail has read, and [delivered] is the replay offset of the last
   record handed to the caller, so a checkpoint taken between parse and
   delivery still replays the records sitting in [queue]. *)
type tail = {
  path : string;
  dec : decoder;
  queue : (Record.t * int) Queue.t;
  mutable fd : Unix.file_descr option;
  mutable ino : int;  (* inode the fd reads; rotation detection *)
  mutable delivered : int;
  mutable failures_seen : int;
  c_parse_errors : Obs.counter;
  c_reopens : Obs.counter;
  c_open_failures : Obs.counter;
  c_bytes : Obs.counter;
}

let close_fd t =
  (match t.fd with Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ()) | None -> ());
  t.fd <- None

(* Restart the stream at [off]: the fd, the queue and the decoder's
   buffered bytes all go. *)
let restart t off =
  close_fd t;
  Queue.clear t.queue;
  t.delivered <- off;
  t.dec.reset_at off

let ensure_open t =
  match t.fd with
  | Some fd -> Some fd
  | None -> (
      match Unix.openfile t.path [ Unix.O_RDONLY ] 0 with
      | fd ->
          (try t.ino <- (Unix.LargeFile.fstat fd).Unix.LargeFile.st_ino
           with Unix.Unix_error _ -> ());
          t.fd <- Some fd;
          Some fd
      | exception Unix.Unix_error _ ->
          Obs.inc t.c_open_failures;
          None)

(* Read the next bytes into the decoder's window; returns how many
   arrived. A file now shorter than what was read (truncation) or a
   path naming another inode (rotation) restarts the stream at 0,
   exactly as [seek 0] does, counting the reopen. *)
let rec fill t =
  match ensure_open t with
  | None -> 0
  | Some fd -> (
      let w = t.dec.win in
      let at = Window.stream_end w in
      let truncated =
        match Unix.LargeFile.fstat fd with
        | st -> st.Unix.LargeFile.st_size < Int64.of_int at
        | exception Unix.Unix_error _ -> false
      in
      let rotated =
        match Unix.LargeFile.stat t.path with
        | st -> st.Unix.LargeFile.st_ino <> t.ino
        | exception Unix.Unix_error _ -> false
      in
      if truncated || rotated then begin
        Obs.inc t.c_reopens;
        restart t 0;
        (* the fd is closed and the stream is at 0, so the retry opens
           the fresh file and cannot loop *)
        fill t
      end
      else
        match
          ignore (Unix.LargeFile.lseek fd (Int64.of_int at) Unix.SEEK_SET : int64);
          Window.make_room w Window.chunk;
          Unix.read fd w.buf w.tail Window.chunk
        with
        | n ->
            w.tail <- w.tail + n;
            Obs.add t.c_bytes n;
            n
        | exception Unix.Unix_error _ -> 0)

let rec pull_tail t =
  match Queue.take_opt t.queue with
  | Some (r, off) ->
      t.delivered <- off;
      `Record r
  | None ->
      if fill t > 0 then begin
        t.dec.parse ();
        (* the decoder's new failures land on mon.feed.parse_errors, so
           feed dashboards need not know the format *)
        let f = t.dec.failures () in
        Obs.add t.c_parse_errors (f - t.failures_seen);
        t.failures_seen <- f;
        pull_tail t
      end
      else if Queue.is_empty t.queue then `Idle
      else pull_tail t

let tail ?obs path make =
  let obs = match obs with Some o -> o | None -> Obs.create () in
  let queue = Queue.create () in
  let counter help name = Obs.counter obs ~help name in
  let t =
    {
      path;
      dec = make obs (fun r off -> Queue.push (r, off) queue);
      queue;
      fd = None;
      ino = -1;
      delivered = 0;
      failures_seen = 0;
      c_parse_errors = counter "malformed feed input units skipped" "mon.feed.parse_errors";
      c_reopens = counter "tailed file reopened after truncation or rotation" "mon.feed.reopens";
      c_open_failures = counter "feed file open attempts that failed" "mon.feed.open_failures";
      c_bytes = counter "feed bytes read" "mon.feed.bytes";
    }
  in
  of_fn
    ~pos:(fun () -> Some (Int64.of_int t.delivered))
    ~seek:(fun off ->
      restart t (Int64.to_int off);
      true)
    ~close:(fun () ->
      (* ends the stream: a pcap tail's capture finishes *)
      close_fd t;
      t.dec.reset_at 0)
    (fun () -> pull_tail t)

let trace_tail ?obs path =
  tail ?obs path (fun _ emit ->
      let d = Record.Decoder.create () in
      {
        win = Record.Decoder.window d;
        parse = (fun () -> Record.Decoder.parse d emit);
        reset_at = Window.reset_at (Record.Decoder.window d);
        failures = (fun () -> Record.Decoder.rejected d);
      })

let tbin_tail ?obs path =
  tail ?obs path (fun obs emit ->
      let d = Nt_tbin.Decoder.create ~obs () in
      {
        win = Nt_tbin.Decoder.window d;
        parse = (fun () -> Nt_tbin.Decoder.parse d emit);
        reset_at = (fun off -> Nt_tbin.Decoder.reset_at d (Int64.of_int off));
        failures = (fun () -> Nt_tbin.failures (Nt_tbin.Decoder.stats d));
      })

let pcap_tail ?obs path =
  tail ?obs path (fun obs emit ->
      let r = Pcap.create ~obs () in
      (* Records leave the capture synchronously while a frame is fed,
         so [at] is the offset just past the frame that completed each. *)
      let at = ref 0 in
      let fresh () = Capture.create ~obs ~emit:(fun rcd -> emit rcd !at) () in
      let cap = ref (fresh ()) in
      let feed off =
        let p = Pcap.record r in
        at := off;
        Capture.feed_slice !cap ~time:p.time p.buf ~off:p.off ~len:p.len
      in
      {
        win = Pcap.window r;
        parse = (fun () -> Pcap.parse r feed);
        reset_at =
          (fun off ->
            (* the old capture's unanswered calls emit as at close,
               replaying from where the new stream starts *)
            at := off;
            ignore (Capture.finish !cap : Capture.stats * Record.t list);
            cap := fresh ();
            Pcap.reset_at r off);
        failures = (fun () -> Pcap.failures r);
      })
