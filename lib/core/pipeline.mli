(** One-call pipelines: simulate a system, get a trace.

    These wire together the engine, server, workload generators,
    record sorter and (optionally) the packet pipe + capture engine, so
    examples, tests and benches all drive the same code paths. *)

type run_stats = {
  records : int;  (** trace records emitted to the sink *)
  sessions : int;  (** interactive sessions started (CAMPUS) *)
  deliveries : int;  (** messages delivered (CAMPUS) *)
  compiles : int;  (** compile jobs (EECS) *)
  server_calls : int;
}

type system = Campus | Eecs

type wiring = {
  engine : Nt_sim.Engine.t;
  sorter : Nt_sim.Record_sorter.t;
  counts : unit -> int * int * int * int;
      (** sessions, deliveries, compiles and server calls so far *)
}

val wire :
  obs:Nt_obs.Obs.t ->
  ?email:Nt_workload.Email.config ->
  ?research:Nt_workload.Research.config ->
  system ->
  start:float ->
  stop:float ->
  (Nt_trace.Record.t -> unit) ->
  wiring
(** One simulated system: an engine starting a second before [start],
    the NFS server (CAMPUS: 10.1.1.2, fsid 2; EECS: 10.2.1.2, fsid 3),
    the workload ([email] or [research]) scheduled over [start, stop),
    and a sorter passing records to the sink in call-time order. The
    caller runs the engine and flushes the sorter. *)

val simulate_campus :
  ?obs:Nt_obs.Obs.t ->
  ?config:Nt_workload.Email.config ->
  start:float ->
  stop:float ->
  sink:(Nt_trace.Record.t -> unit) ->
  unit ->
  run_stats
(** Run the CAMPUS email workload over [start, stop); records arrive at
    [sink] sorted by call time.

    [obs] (default: a private enabled registry) hosts the run's
    telemetry — [pipeline.records], [workload.*], [server.calls],
    [engine.*], [sorter.*] and a [simulate.campus] span — and the
    returned {!run_stats} is {e derived from those counters}, so the
    struct can never disagree with an exported snapshot. A disabled
    registry therefore yields all-zero stats. *)

val simulate_eecs :
  ?obs:Nt_obs.Obs.t ->
  ?config:Nt_workload.Research.config ->
  start:float ->
  stop:float ->
  sink:(Nt_trace.Record.t -> unit) ->
  unit ->
  run_stats

type pcap_stats = {
  run : run_stats;
  packets_written : int;
  packets_dropped : int;  (** lost at the monitor port *)
  snapshot : Nt_obs.Obs.snapshot;
      (** full registry snapshot taken after the run — the same
          counters the struct fields were read from *)
}

val campus_to_pcap :
  ?obs:Nt_obs.Obs.t ->
  ?config:Nt_workload.Email.config ->
  ?fault:Nt_sim.Fault.plan ->
  ?seed:int64 ->
  start:float ->
  stop:float ->
  writer:Nt_net.Pcap.writer ->
  unit ->
  pcap_stats
(** Full wire path: CAMPUS traffic as NFSv3-over-TCP jumbo-frame
    packets in a pcap stream, with optional capture loss — the input
    the paper's own tracer consumed. [fault] injects a monitor fault
    plan (independent loss is {!Nt_sim.Fault.bernoulli_loss}); [seed]
    seeds the injector. *)

val eecs_to_pcap :
  ?obs:Nt_obs.Obs.t ->
  ?config:Nt_workload.Research.config ->
  ?fault:Nt_sim.Fault.plan ->
  ?seed:int64 ->
  start:float ->
  stop:float ->
  writer:Nt_net.Pcap.writer ->
  unit ->
  pcap_stats
(** EECS traffic as NFS-over-UDP packets (mixed v2/v3 clients). *)

val capture_pcap :
  ?obs:Nt_obs.Obs.t ->
  ?salvage:bool ->
  string ->
  Nt_trace.Capture.stats * Nt_trace.Record.t list
(** Decode a pcap byte string back into trace records — the passive
    tracer itself. [salvage] enables resync past corrupt pcap record
    headers (see {!Nt_net.Pcap}). [obs] is shared between the pcap
    reader and the capture engine (disjoint [capture.*] namespaces)
    and gains a [capture.decode] span. *)

val trace_pcap :
  ?obs:Nt_obs.Obs.t ->
  ?timeline:Nt_obs.Timeline.t ->
  ?emit:(Nt_trace.Record.t -> unit) ->
  ?tbin:out_channel ->
  Nt_net.Pcap.reader ->
  out_channel ->
  Nt_trace.Capture.stats * string option
(** [nfstrace]'s decode: each record as it completes, as a text line to
    the channel and as nttb/1 to [tbin] when given, and to [emit].
    Unanswered calls flush at the end. A record header damaged
    mid-capture ({!Nt_net.Pcap.Bad_format}) stops the decode: the
    result is the stats so far and [Some reason], and pending calls are
    not flushed. On every exit the records decoded so far are written
    (unless writing failed) and the tbin writer is closed, so both
    outputs hold the same records; the channels stay open.

    The writing runs on a second domain when
    [Domain.recommended_domain_count ()] exceeds 1, else inline; the
    output is the same byte for byte. [emit] runs on the calling domain
    in record order. An exception in either stage stops both and is
    raised once the second domain has joined. Under [obs]'s
    [capture.decode] span, [trace.render] is the writing's busy time
    and [trace.blocked] the capture's waits for the writer; [timeline]
    gains one span per batch the second domain wrote, on its track. *)

type degraded_run = {
  simulated : int;  (** records pushed into both pipes *)
  clean : Nt_trace.Capture.stats;
  degraded : Nt_trace.Capture.stats;
  faults : Nt_sim.Fault.counts;  (** what was actually injected *)
  clean_records : Nt_trace.Record.t list;
  degraded_records : Nt_trace.Record.t list;
}

val run_degraded :
  ?seed:int64 ->
  ?mangle_flips:int ->
  transport:Nt_sim.Packet_pipe.transport ->
  plan:Nt_sim.Fault.plan ->
  Nt_trace.Record.t list ->
  degraded_run
(** Run the same records through a clean capture and a fault-injected
    one (same pipe seed, so the only difference is the plan), decoding
    the degraded pcap in salvage mode. [mangle_flips] additionally
    flips that many bytes of the degraded pcap stream itself —
    savefile-level corruption the salvage reader must absorb. Tests
    assert two things against the result: conservation (each injected
    fault appears in exactly one capture counter) and bounded analysis
    drift (clean vs degraded metrics stay within tolerance at realistic
    loss rates). *)

val lint_records :
  ?obs:Nt_obs.Obs.t ->
  ?config:Nt_lint.Engine.config ->
  ?stats:Nt_trace.Capture.stats ->
  Nt_trace.Record.t list ->
  Nt_lint.Engine.t
(** Run the static checker over a record list (and optional capture
    stats); inspect the result with {!Nt_lint.Engine.findings} and
    friends. *)

type lint_oracle = { clean_lint : Nt_lint.Engine.t; degraded_lint : Nt_lint.Engine.t }

val lint_degraded : ?config:Nt_lint.Engine.config -> degraded_run -> lint_oracle
(** Lint both sides of a differential run. The linter is itself an
    oracle here: the clean side must come back finding-free while the
    degraded side must show findings from the family the fault plan
    predicts (loss ⇒ protocol, truncation/corruption ⇒ hygiene). *)

val campus_degraded :
  ?config:Nt_workload.Email.config ->
  ?seed:int64 ->
  ?mangle_flips:int ->
  plan:Nt_sim.Fault.plan ->
  start:float ->
  stop:float ->
  unit ->
  degraded_run
(** CAMPUS (TCP) differential run over a simulated interval. *)

val eecs_degraded :
  ?config:Nt_workload.Research.config ->
  ?seed:int64 ->
  ?mangle_flips:int ->
  plan:Nt_sim.Fault.plan ->
  start:float ->
  stop:float ->
  unit ->
  degraded_run
(** EECS (UDP) differential run over a simulated interval. *)

(** {1 Trace sources} *)

type format = Text | Tbin | Pcap

val source : string -> format * string
(** The one source-spec parser, shared with nfsmon: the format and the
    path. [-] is text on stdin, [trace:], [tbin:] and [pcap:] name the
    format, and a bare path is sniffed by content: the nttb/1 magic, any
    of the four pcap magics, else (an unreadable file too) text. *)

type source_stats = {
  rejected : int;  (** malformed text lines skipped *)
  tbin : Nt_tbin.stats option;  (** the decoder's stats, for tbin input *)
  capture : Nt_trace.Capture.stats option;  (** the capture's stats, for pcap input *)
}

val iter_trace :
  ?obs:Nt_obs.Obs.t -> string -> (Nt_trace.Record.t -> unit) -> source_stats
(** Stream a text, tbin or pcap trace from a source spec (see
    {!source}) through [f] without holding it: {!analyze_trace}'s reader
    at one range. A pcap decodes through {!Nt_trace.Capture} with a
    salvaging reader, as [nfstrace --salvage] does, and [f] sees the
    records in the order they complete, unanswered calls last. What
    cannot be decoded is counted, never raised, and the [tbin.*] or
    [capture.*] counters land on [obs]; [Sys_error] if the file cannot
    be read, {!Nt_net.Pcap.Bad_format} if a pcap's global header is
    damaged. *)

val analyze_trace :
  ?obs:Nt_obs.Obs.t ->
  ?timeline:Nt_obs.Timeline.t ->
  ?jobs:int ->
  ?tap:(Nt_trace.Record.t -> unit) ->
  sections:Nt_par.Report.section list ->
  string ->
  (Nt_par.Report.section * string) list * int * source_stats
(** The paper's analyses over a trace file, its bytes cut into
    {!Nt_par.Report.range_count}[ jobs] (default 1) ranges that each
    decode and fold on their own domain ({!Nt_par.Report.run_ranges}).
    stdin, anything but a regular file, a pcap (capture state is per
    flow) and a file shorter than the range count read as one range.
    Text ranges split at line starts. A tbin range owns the frames
    whose start lies in it ({!Nt_tbin.iter_range}); if a range did not
    halt exactly where the next one started, the file is read again as
    one range. [tap] sees the records read on the calling domain: all
    of them at one range, range 0's otherwise. Returns the sections,
    the record count and the ranges' summed stats, whose [tbin.*]
    counters are added to [obs]. The report, the count and the stats
    are identical at any [jobs]. Raises as {!iter_trace}. *)

val skipped_notes : tool:string -> source_stats -> string list
(** The stderr lines for skipped input, each only when N > 0:
    ["<tool>: N malformed lines skipped"] for text, and
    ["<tool>: N damaged tbin frames skipped (B bytes)"] with N the
    {!Nt_tbin.failures} and B the bytes passed over. A pcap always
    gets [nfstrace]'s stats line,
    ["<tool>: "]{!Nt_trace.Capture.stats_to_string}. *)

val load_trace : ?obs:Nt_obs.Obs.t -> ?rejected:int ref -> string -> Nt_trace.Record.t list
(** {!iter_trace} into a list; malformed text lines are added to
    [rejected]. *)

val analyze_stream :
  ?obs:Nt_obs.Obs.t ->
  ?timeline:Nt_obs.Timeline.t ->
  sections:Nt_par.Report.section list ->
  ((Nt_trace.Record.t -> unit) -> unit) ->
  (Nt_par.Report.section * string) list * int
(** The paper's analyses over a pushed record stream (e.g. a simulator
    sink), folded as records arrive, as one range — see
    {!Nt_par.Report.run_stream}. *)
