(** The nfsstats report, computed by the sharded engine and rendered
    deterministically.

    Rendering goes through {!Nt_util.Tables.render} into strings, so a
    report is a value that can be golden-tested; and because the shard
    plan, merge order and terminal chunking are all independent of the
    worker count, the same trace renders to byte-identical text at any
    [jobs] setting. *)

type section = [ `Summary | `Runs | `Names | `Hourly ]

val section_name : section -> string

val default_records_per_shard : int
(** 65536 — small enough to give a day-scale trace real parallelism,
    large enough that per-shard constant costs stay negligible. *)

val run :
  ?obs:Nt_obs.Obs.t ->
  ?timeline:Nt_obs.Timeline.t ->
  ?jobs:int ->
  ?records_per_shard:int ->
  sections:section list ->
  Nt_trace.Record.t array ->
  (section * string) list
(** Run the requested sections over a time-sorted record array with
    [jobs] worker domains (default 1 — inline, no domains; 0 = the
    machine's recommended count) and [records_per_shard]-sized shards
    (default 65536). All requested passes share one task batch; the
    runs section additionally chunk-fans its terminal analysis over the
    merged I/O log. Results come back in request order. *)

val run_stream :
  ?obs:Nt_obs.Obs.t ->
  ?timeline:Nt_obs.Timeline.t ->
  ?jobs:int ->
  ?records_per_shard:int ->
  sections:section list ->
  ((Nt_trace.Record.t -> unit) -> unit) ->
  (section * string) list * int
(** [run_stream ~sections produce] is {!run} without the array:
    [produce push] drives the trace through [push], and every pass
    observes each record as it arrives. Chunks of [records_per_shard]
    commit where {!run}'s shard plan cuts, so the text is byte-identical
    with {!run} at any [jobs]; [par.pass.<name>] gets one span per
    chunk. Peak state is the accumulators — the out-of-core path. [jobs]
    sizes only the runs finalize's pool. Also returns the record count. *)
