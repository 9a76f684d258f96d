(** Materialise trace records as real packets in a pcap capture.

    This closes the loop that makes the reproduction honest: workload →
    records → RPC/XDR bytes → UDP datagrams or record-marked TCP
    segments → Ethernet frames → pcap, which the {!Nt_trace.Capture}
    engine then decodes like any tcpdump output.

    The monitor model reproduces §4.1.4 and beyond: every emitted
    packet passes through a {!Fault} injector, so the capture can
    suffer bursty loss, corruption, truncation, duplication, and
    reordering before it reaches the pcap file. Faults apply to the
    {e capture}, not the protocol — the simulated client/server
    conversation already happened.

    TCP mode opens one long-lived connection per client (as CAMPUS's
    mounts do): a SYN packet precedes a client's first payload, and
    sequence numbers accumulate across the whole capture. *)

type transport = Udp_transport | Tcp_transport

type t

val create :
  ?obs:Nt_obs.Obs.t ->
  ?fault:Fault.plan ->
  ?seed:int64 ->
  ?mtu:int ->
  transport:transport ->
  writer:Nt_net.Pcap.writer ->
  unit ->
  t
(** [obs] hosts [pipe.packets_written] plus the injector's [fault.*]
    counters; defaults to a private always-enabled registry so the
    accessors below keep counting without wiring.

    [fault] is the monitor fault model, default {!Fault.none}; the
    CAMPUS mirror port's headline behaviour (it lost up to ~10% under
    load; EECS lost none) is {!Fault.bernoulli_loss}.

    [mtu] defaults to 9000 (jumbo frames); UDP datagrams above it are
    emitted anyway (the real stack would IP-fragment; the capture
    engine treats the oversized frame equivalently). *)

val push : t -> Nt_trace.Record.t -> unit
(** Emit the call packet(s) and, when the record has a reply, the reply
    packet(s). Records should arrive roughly time-sorted (the
    record-sorter output); packets are re-sorted in a bounded window
    before writing. *)

val finish : t -> unit
(** Flush buffered packets. *)

val packets_written : t -> int
val packets_dropped : t -> int

val faults : t -> Fault.counts
(** Injection accounting for the whole run — the other half of the
    conservation invariant the capture engine's stats must satisfy. *)
