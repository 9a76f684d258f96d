(** nttb/1: the compact binary trace container.

    A tbin stream is a 7-byte magic ["nttb/1\n"] followed by
    self-contained frames. Each frame opens with a 4-byte sync marker
    (F5 4E 54 B1), a flags byte (bit 0: payload RLE-compressed), and
    three little-endian u32s — uncompressed payload length, stored
    payload length, Adler-32 of the uncompressed payload. The payload
    interns every string the frame's records mention (file handles,
    names, symlink targets) into an atom dictionary, then varint-packs
    the records themselves: times as XOR-delta float bit patterns,
    ints zigzag-coded, atoms as dictionary indices (see DESIGN.md
    section 15 for the byte-level grammar).

    Unlike the text format, the record codec is lossless for every
    field the in-memory {!Nt_trace.Record.t} carries — full [fattr]s,
    readdir entry lists, sattr masks — so
    [decode (encode r) = r] structurally.

    The reader follows the {!Nt_trace.Capture} discipline: decode
    failures are counted, never raised. A damaged frame is charged to
    exactly one labeled [tbin.decode_failure] counter and the stream
    resynchronises on the next sync marker; frames are independent
    (per-frame dictionaries, per-frame time deltas), so corruption
    never propagates past the frame that absorbed it. *)

val magic : string
(** ["nttb/1\n"], the 7-byte stream header. *)

val sync : string
(** The 4-byte frame marker the reader rescans for after damage. *)

val max_payload : int
(** Per-frame payload bound (16 MiB); larger claimed lengths are
    treated as corruption. *)

type stats = {
  frames : int;  (** frames decoded clean *)
  records : int;  (** records delivered *)
  skipped_bytes : int;  (** bytes passed over while resynchronising *)
  missing_header : int;  (** streams that did not open with {!magic} *)
  bad_frames : int;  (** header-bounds, checksum or decompression failures *)
  bad_records : int;  (** checksummed frames with undecodable records *)
  lost_sync : int;  (** spontaneous resync episodes *)
  truncated_tails : int;  (** partial frame bytes left at end of stream *)
}

val failures : stats -> int
(** Sum of the five failure classes — every decode failure lands in
    exactly one of them. *)

val stats_to_string : stats -> string

val sum : stats -> stats -> stats
(** Field-wise sum: the stats of two ranges read apart. *)

val add_stats : Nt_obs.Obs.t -> stats -> unit
(** Add the stats to the registry's [tbin.*] counters, the ones a
    {!Decoder} created on that registry mirrors as it goes. *)

(** {1 Writing} *)

module Writer : sig
  type t

  val create : ?frame_records:int -> (string -> unit) -> t
  (** [create sink] emits {!magic} immediately, then one frame per
      [frame_records] records (default 4096, clamped to >= 1; a frame
      also closes early when its payload reaches 1 MiB). *)

  val add : t -> Nt_trace.Record.t -> unit

  val flush : t -> unit
  (** Close the open frame, if any; the stream stays appendable. *)

  val close : t -> unit
  (** {!flush}; the writer must not be used afterwards. *)

  val written : t -> int
  (** Records accepted so far. *)
end

val write_channel : ?frame_records:int -> out_channel -> Nt_trace.Record.t Seq.t -> int
(** Write a whole stream; returns the record count. *)

val encode_string : ?frame_records:int -> Nt_trace.Record.t list -> string

(** {1 Reading} *)

module Decoder : sig
  (** Incremental push decoder: feed byte chunks of any size (one byte
      at a time works), pull decoded records. Failures are counted on
      the registry ([tbin.*] namespace), never raised. Records never
      alias the reused input window. *)

  type t

  val create : ?obs:Nt_obs.Obs.t -> unit -> t

  val window : t -> Nt_net.Window.t

  val parse : t -> (Nt_trace.Record.t -> int -> unit) -> unit
  (** Decode every complete frame in the window, handing each record
      to the callback with its replay offset: the end of its frame for
      the last record of a frame, the frame's start for earlier ones —
      so resuming a tail from the reported offset is at-least-once at
      frame granularity. *)

  val feed : t -> string -> unit
  (** Copy [chunk] into the window and {!parse} it into a queue. *)

  val pull : t -> Nt_trace.Record.t option
  (** The next record {!feed} queued. *)

  val finish : t -> unit
  (** Mark end of stream: leftover partial-frame bytes are counted as
      a truncated tail. Idempotent. *)

  val reset_at : t -> int64 -> unit
  (** Forget buffered bytes and queued records and resume as if the
      stream position were [off] (0 re-expects the magic). Counters
      keep accumulating. *)

  val stats : t -> stats

  val footprint : t -> Nt_obs.Footprint.t
  (** Input-window capacity + queued-records estimate for the
      state-footprint gauges. *)
end

type range = {
  stats : stats;  (** what this range decoded and counted *)
  first : int;
      (** offset of the range's first clean frame: 0 for a range that
          starts the stream, -1 if a mid-stream range found none *)
  stop : int;
      (** offset of the clean frame at or past [hi] the range halted in
          front of, or -1 if it read to the end of the stream *)
}

val iter_range :
  in_channel -> lo:int -> hi:int -> (Nt_trace.Record.t -> unit) -> range
(** Stream-decode the frames of a seekable channel whose start lies in
    [\[lo, hi)], without materializing the record set — the
    out-of-core path. Reads land in the decoder's window and records
    reach the callback as they decode, with no queue. A range with
    [lo > 0] seeks to [lo] and starts at the first frame at or past it
    that passes the header and checksum checks; the bytes in front of
    it are the previous range's, so they count neither as lost sync
    nor as skipped bytes. The range halts in front of the first such
    frame at or past [hi]. Decoding after the start is exactly the
    whole-stream decoder's, damage and resync included, so ranges
    [\[c_i, c_(i+1))] reproduce the whole decode, stats summed with
    {!sum}, whenever each range's [stop] is the next one's [first]. A
    checksum-valid frame embedded in another frame's payload can break
    that; the caller then reads the stream as one range. Counts go to a
    private registry, so a range reader may run on any domain. *)

val iter_channel : in_channel -> (Nt_trace.Record.t -> unit) -> stats
(** The whole stream as one range: [lo = 0], no [hi]. *)
