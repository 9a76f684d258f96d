(** The capture engine: packets in, trace records out.

    This is the OCaml equivalent of the paper's modified tcpdump. It
    decodes Ethernet/IPv4, demultiplexes UDP datagrams and reassembled
    TCP streams into RPC messages, pairs calls with replies by
    (client, XID), decodes NFS procedure bodies, and emits one
    {!Record.t} per call.

    Loss handling follows §4.1.4: a reply whose call was never seen is
    undecodable (we count it and drop it); a call whose reply never
    arrives is emitted with [result = None] — those a sweep expires
    together, or {!finish} flushes together, leave sorted by (call
    time, client, xid); TCP stream gaps force RPC
    resynchronisation and are counted. Degraded input — corrupted
    frames, UDP retransmissions, mangled pcap records — is likewise
    counted, never fatal: every fault the monitor can hand us lands in
    exactly one counter below (see DESIGN.md, "Fault model & loss
    accounting"). *)

type stats = {
  frames : int;  (** link frames presented *)
  undecodable_frames : int;  (** not IPv4/UDP/TCP, or truncated *)
  corrupt_frames : int;  (** parsed, but the IPv4 header checksum failed *)
  rpc_messages : int;
  rpc_errors : int;  (** XDR-level parse failures *)
  non_nfs : int;  (** RPC traffic for other programs *)
  calls : int;  (** distinct calls (retransmissions excluded) *)
  replies : int;
  duplicate_calls : int;  (** retransmitted calls for a pending/answered xid *)
  duplicate_replies : int;  (** retransmitted replies for an answered xid *)
  orphan_replies : int;  (** reply seen, call lost — both are lost, per the paper *)
  lost_replies : int;  (** call seen, reply never arrived *)
  tcp_gaps : int;
  salvaged_records : int;  (** pcap records recovered by the salvage reader *)
  skipped_pcap_bytes : int;  (** pcap bytes discarded while resyncing *)
  truncated_pcap_tails : int;  (** pcap streams that ended mid-record *)
}

val stats_to_string : stats -> string

type t

val lost_reply_timeout : float
(** 60 s of trace time: a call unanswered for this long is emitted as
    reply-lost. *)

val create : ?obs:Nt_obs.Obs.t -> ?emit:(Record.t -> unit) -> unit -> t
(** A call unanswered for {!lost_reply_timeout} is emitted as
    reply-lost. [emit] receives records as they complete; when omitted,
    records accumulate for {!finish}.

    [obs] hosts the capture counters ([capture.frames],
    [capture.decode_failure{reason=...}], [capture.calls], ...);
    defaults to a private always-enabled registry so {!finish} stats
    work without wiring. Share one registry between the pcap reader and
    the capture engine to get a single self-consistent snapshot — the
    namespaces are disjoint, so nothing double-counts. *)

val feed_slice : t -> time:float -> string -> off:int -> len:int -> unit
(** Process the link-layer frame [buf.[off .. off+len-1]]. Never raises:
    malformed input is counted in {!stats}. The contract is
    fuzz-verified (random and bit-flipped frames in the test suite).

    The frame is read in place, so [buf] may be a reused read buffer:
    what outlives the call is copied (TCP segments held for reordering,
    RPC records that span segments, and the handles and names in the
    records). *)

val feed_packet : t -> time:float -> string -> unit
(** {!feed_slice} over a whole string. *)

val feed_pcap : t -> Nt_net.Pcap.reader -> unit
(** Drain a pcap stream through {!feed_slice}, one
    {!Nt_net.Pcap.advance} at a time, then fold the reader's
    salvage/truncation accounting into {!stats}. Per frame it allocates
    the frame's timestamp, the pending-call entries and what the
    emitted records hold; the frame, RPC header and XDR decoder are
    scratch that [t] reuses, so two captures (on two domains, say)
    share nothing. *)

val stats : t -> stats
(** The counts so far, without flushing anything: what a decode that
    aborts on a damaged pcap reports. *)

val finish : t -> stats * Record.t list
(** Flush unanswered calls in (call time, client, xid) order, then
    return statistics and all buffered records sorted by call time
    (empty list if an [emit] sink was given). *)
