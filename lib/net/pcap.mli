(** libpcap savefile format (tcpdump's on-disk format).

    The paper's tracer was a modified tcpdump; ours round-trips the same
    file format so that synthetic captures written by the simulator are
    ordinary pcap files, and the analysis pipeline could equally consume
    a capture produced by a real tcpdump.

    Both byte orders and both microsecond and nanosecond timestamp
    magics are accepted on read; writes are microsecond little-endian,
    linktype EN10MB. *)

type packet = { time : float; orig_len : int; data : string }
(** A packet that owns its bytes. [data] may be shorter than [orig_len]
    when the capture snapped. *)

exception Bad_format of string

type writer

val writer_to_buffer : ?snaplen:int -> Buffer.t -> writer
val writer_to_channel : ?snaplen:int -> out_channel -> writer
val write : writer -> time:float -> string -> unit
(** Appends one packet record, truncating to the snaplen. *)

type reader

type read_stats = {
  records : int;  (** records successfully decoded *)
  salvaged : int;  (** records recovered after resyncing past corruption *)
  skipped_bytes : int;  (** bytes discarded while resyncing or at a cut-off tail *)
  resyncs : int;  (** times the salvage scanner re-acquired a record boundary *)
  truncated_tail : bool;  (** the capture ended mid-record *)
}

val reader_of_string : ?obs:Nt_obs.Obs.t -> ?salvage:bool -> string -> reader
val reader_of_channel : ?obs:Nt_obs.Obs.t -> ?salvage:bool -> in_channel -> reader
(** [salvage] (default false): instead of raising {!Bad_format} on a
    corrupt record header, scan forward byte-by-byte for the next
    plausible header, counting skipped bytes — a months-long capture
    with a few mangled records is still mostly analyzable (§4.1.4).

    [obs] hosts the loss-accounting counters ([capture.pcap_records],
    [capture.salvaged_records], [capture.skipped_bytes],
    [capture.resyncs], [capture.truncated_tails]); defaults to a
    private always-enabled registry so {!read_stats} works without
    wiring. *)

type record = private {
  mutable time : float;
  mutable orig_len : int;
  mutable buf : string;
  mutable off : int;
  mutable len : int;
}
(** The packet {!advance} read last, left in the reader's buffer: its
    bytes are [buf.[off .. off+len-1]], and [len] may be shorter than
    [orig_len] when the capture snapped. Each reader owns one and
    overwrites it with every record, so its fields are valid only until
    the next read from the same reader. *)

val advance : reader -> bool
(** Read the next packet into {!record}, without copying it or
    allocating more than its timestamp. [false] at end of file. A final
    record cut off by EOF also yields [false], with [truncated_tail]
    set in {!read_stats} rather than an exception. In non-salvage mode
    a corrupt record header raises {!Bad_format}; in salvage mode it
    resyncs.

    A channel reader reads into one window that grows only to fit the
    largest record; a string reader hands out ranges of the string it
    was given. Either way the bytes are valid until the next read. *)

val record : reader -> record

val read_next : reader -> packet option
(** {!advance}, copying the packet out. *)

val read_stats : reader -> read_stats
(** Loss accounting for everything read so far. *)

val has_magic : string -> bool
(** Whether [s] opens with one of the four pcap magics (either byte
    order, micro- or nanosecond ticks) — how a bare path is sniffed. *)

(** {1 Pushed decoding}

    The monitor's tail drives the same parser as {!advance}: it
    reads file bytes into {!window} and calls {!parse}. Nothing raises
    here, and a record still short of bytes waits for them. *)

val create : ?obs:Nt_obs.Obs.t -> unit -> reader
(** A salvage-mode reader with no source, expecting the global header;
    an unknown magic or linktype counts in {!failures}. *)

val window : reader -> Window.t

val parse : reader -> (int -> unit) -> unit
(** Decode every complete record into {!record} and call the callback
    with the stream offset past it. *)

val reset_at : reader -> int -> unit
(** Re-expect the global header at offset 0, then jump to [off]. *)

val failures : reader -> int
(** Resyncs, unusable global headers and truncated tails so far. *)
