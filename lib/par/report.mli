(** The nfsstats report, computed by one chunked fold and rendered
    deterministically.

    Rendering goes through {!Nt_util.Tables.render} into strings, so a
    report is a value that can be golden-tested; and because the chunk
    boundaries, merge order and the runs finalize's chunking are all
    independent of the worker count, the same trace renders to
    byte-identical text at any [jobs] setting. *)

type section = [ `Summary | `Runs | `Names | `Hourly ]

val section_name : section -> string

val default_records_per_shard : int
(** 65536 — large enough that per-chunk merge costs stay negligible. *)

val run_stream :
  ?obs:Nt_obs.Obs.t ->
  ?timeline:Nt_obs.Timeline.t ->
  ?jobs:int ->
  ?records_per_shard:int ->
  sections:section list ->
  ((Nt_trace.Record.t -> unit) -> unit) ->
  (section * string) list * int
(** [run_stream ~sections produce] runs the requested sections over a
    time-sorted record stream: [produce push] drives the trace through
    [push], and every pass observes each record as it arrives. Chunks
    of [records_per_shard] records (default 65536) fold into their own
    accumulators — the root for chunk 0, shard-mode ones after — and
    left-fold merge at each boundary, so the text is byte-identical at
    any chunk size. [par.pass.<name>] gets one span per chunk and
    [par.merge] one per boundary. Peak state is the accumulators — the
    out-of-core path. [jobs] worker domains (default 1 — inline, no
    domains; 0 = the machine's recommended count) run only the runs
    finalize, which chunk-fans its classification over the merged I/O
    log. Results come back in request order, with the record count.
    Raises [Invalid_argument] on a non-positive [records_per_shard]. *)

val run :
  ?obs:Nt_obs.Obs.t ->
  ?timeline:Nt_obs.Timeline.t ->
  ?jobs:int ->
  ?records_per_shard:int ->
  sections:section list ->
  Nt_trace.Record.t array ->
  (section * string) list
(** {!run_stream} over an array. *)
