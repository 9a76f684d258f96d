(** The report's analyses packaged as {!Driver.pass} values, plus the
    chunk-parallel runs finalize that consumes a merged I/O log.

    Summary, hourly and the I/O log are position-independent, so their
    shard accumulator is the plain empty one. Names needs the
    shard-mode constructor that defers what only earlier chunks can
    resolve. Runs are a pure function of per-file access lists, so they
    are classified after the I/O-log merge, chunked over
    {!Nt_analysis.Io_log.sorted_files} — the chunk-boundary carry for
    an open run is the log merge itself. *)

val summary : Nt_analysis.Summary.t Driver.pass
val hourly : Nt_analysis.Hourly.t Driver.pass
val io_log : Nt_analysis.Io_log.t Driver.pass
val names : Nt_analysis.Names.t Driver.pass

val runs :
  ?obs:Nt_obs.Obs.t ->
  ?timeline:Nt_obs.Timeline.t ->
  ?window:float ->
  ?gap:float ->
  ?chunk:int ->
  jump_blocks:int ->
  Pool.t ->
  Nt_analysis.Io_log.t ->
  Nt_analysis.Runs.run list
(** Chunk-parallel {!Nt_analysis.Runs.analyze}. Runs come back ordered
    by (file-handle, position) rather than hash-table order — a
    deterministic permutation of the sequential result, so every
    aggregate ({!Nt_analysis.Runs.table3} etc.) is identical. *)
