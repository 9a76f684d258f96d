(** Analysis passes and the chunk-parallel terminal map.

    An analysis pass is packaged as an accumulator factory pair plus
    [observe] and [merge]: the first chunk of a trace gets a root
    accumulator (it really does start the trace), every later chunk
    gets a shard-mode one (which must not assume it saw the beginning),
    and {!Report.run_stream} left-folds [merge] at each chunk boundary.

    Worker domains run only {!map_chunks}. Workers only measure — each
    chunk task's wall time is folded into the coordinator's registry
    afterwards as a [par.pass.<name>] span ({!Nt_obs.Obs.span_record};
    the registry is single-domain), and the map exports [par.jobs] /
    [par.queue_depth] gauges and [par.tasks] / [par.shards] counters.
    With a [timeline], each task additionally appends its completed
    span into a worker-private {!Nt_obs.Timeline.buf} that the
    coordinator absorbs in chunk order at join — the trace gains one
    [par.pass.<name>] interval per chunk on the executing domain's
    track, with no cross-domain mutation. *)

type 'a pass = {
  name : string;  (** span label: [par.pass.<name>] *)
  init : unit -> 'a;  (** root accumulator (chunk 0) *)
  init_shard : unit -> 'a;  (** mid-trace accumulator (chunks 1..) *)
  observe : 'a -> Nt_trace.Record.t -> unit;
  merge : 'a -> 'a -> 'a;
      (** [merge a b] with [b] the next time range; returns [a]. *)
}

val map_chunks :
  ?obs:Nt_obs.Obs.t ->
  ?timeline:Nt_obs.Timeline.t ->
  ?chunk:int ->
  Pool.t ->
  name:string ->
  ('a array -> 'b) ->
  'a array ->
  'b list
(** Fan a plain array computation (terminal analyses over
    {!Nt_analysis.Io_log.sorted_files}) across the pool in contiguous
    [chunk]-sized pieces (default 512 items; the last may be short),
    returning chunk results in chunk order. The chunk size is
    independent of the worker count. Raises [Invalid_argument] on a
    non-positive [chunk]. *)
