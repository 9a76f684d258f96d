(** Record feeds: where the live monitor's input comes from.

    A feed is a pull interface that never blocks and never raises from
    [pull]: it yields a record, reports that nothing is available right
    now ([`Idle] — the service applies backoff), or reports that the
    source is finished ([`Closed]). File feeds {e tail} through the
    format's decoder, the one the batch readers drive, and answer
    [`Idle] only once no unread byte remains. They survive the file not
    existing yet, and a truncation or rotation restarts the stream as
    [seek 0] does. Every anomaly lands in a counter on the feed's
    registry, never in an exception:

    - [mon.feed.parse_errors] — the decoder's failures: malformed trace
      lines, damaged tbin frames, pcap resyncs and truncated tails
    - [mon.feed.reopens] — truncation- or rotation-triggered restarts
    - [mon.feed.open_failures] — the path could not be opened (yet)

    File feeds expose a {e position}: the byte offset such that
    re-reading from it replays exactly the unconsumed suffix. The
    checkpoint stores it, so a kill-9 loses nothing — restore seeks and
    the records since the last checkpoint are simply read again. *)

type pull_result = [ `Record of Nt_trace.Record.t | `Idle | `Closed ]

type t

val pull : t -> pull_result

val pos : t -> int64 option
(** Checkpointable resume offset; [None] for feeds that cannot seek
    (simulator, in-memory). For the pcap tail this is the offset just
    past the pcap record that completed the last delivered record —
    capture pairing state is rebuilt from the replayed suffix. *)

val seek : t -> int64 -> bool
(** Resume at a checkpointed offset; false when unsupported. A file
    tail restarts its decoder there (the pcap tail re-reads the global
    header first) and reads on from it. *)

val close : t -> unit

val of_fn :
  ?pos:(unit -> int64 option) ->
  ?seek:(int64 -> bool) ->
  ?close:(unit -> unit) ->
  (unit -> pull_result) ->
  t
(** Wrap a pull function — how the simulator live feed plugs in. *)

val of_records : Nt_trace.Record.t Seq.t -> t
(** In-memory feed for tests; [`Closed] once exhausted. *)

val trace_tail : ?obs:Nt_obs.Obs.t -> string -> t
(** Tail a text trace through {!Nt_trace.Record.Decoder}. A line is
    consumed only once its newline arrives, so a writer caught mid-line
    never produces a parse error or a lost record. *)

val pcap_tail : ?obs:Nt_obs.Obs.t -> string -> t
(** Tail a pcap capture through {!Nt_net.Pcap}'s salvage mode — a
    damaged capture decodes as under [nfstrace --salvage] — and the
    capture engine. A restart finishes the old capture, so its
    unanswered calls emit as they do at close, and starts a fresh one. *)

val tbin_tail : ?obs:Nt_obs.Obs.t -> string -> t
(** Tail an nttb/1 binary trace (see {!Nt_tbin}) through its decoder,
    reading straight into the decoder's window. The reported position
    replays at frame granularity: at-least-once, never lossy. *)
