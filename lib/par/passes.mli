(** The report's analyses packaged as accumulator passes, plus the runs
    finalize that consumes a merged I/O log.

    A pass is an accumulator factory pair plus [observe] and [merge]:
    the first range of a trace gets a root accumulator (it really does
    start the trace), every later range gets a shard-mode one (which
    must not assume it saw the beginning), and {!Report} left-folds
    [merge] over the ranges in order. Summary, hourly and the I/O log
    are position-independent, so their shard accumulator is the plain
    empty one. Names needs the shard-mode constructor that defers what
    only earlier ranges can resolve. Runs are a pure function of
    per-file access lists, so they are classified after the I/O-log
    merge — the range-boundary carry for an open run is the log merge
    itself. *)

type 'a pass = {
  name : string;  (** span label: [par.pass.<name>] *)
  init : unit -> 'a;  (** root accumulator (range 0) *)
  init_shard : unit -> 'a;  (** mid-trace accumulator (ranges 1..) *)
  observe : 'a -> Nt_trace.Record.t -> unit;
  merge : 'a -> 'a -> 'a;
      (** [merge a b] with [b] the next time range; returns [a]. *)
}

val summary : Nt_analysis.Summary.t pass
val hourly : Nt_analysis.Hourly.t pass
val io_log : Nt_analysis.Io_log.t pass
val names : Nt_analysis.Names.t pass

val runs :
  ?window:float -> ?gap:float -> jump_blocks:int -> Nt_analysis.Io_log.t -> Nt_analysis.Runs.run list
(** {!Nt_analysis.Runs.analyze} on the calling domain, file by file over
    {!Nt_analysis.Io_log.sorted_files}. Runs come back ordered by
    (file-handle, position) rather than hash-table order — a
    deterministic permutation of the sequential result, so every
    aggregate ({!Nt_analysis.Runs.table3} etc.) is identical. *)
