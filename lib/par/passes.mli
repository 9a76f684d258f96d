(** The report's analyses packaged as accumulator passes.

    A pass is an accumulator factory plus [observe], [finish] and, when
    its input may be cut into ranges, the shard side: the first range
    of a trace gets a root accumulator (it really does start the
    trace), every later range gets a shard-mode one (which must not
    assume it saw the beginning), and {!Report} left-folds [merge] over
    the ranges in order. Summary and hourly are position-independent,
    so their shard accumulator is the plain empty one. Names needs the
    shard-mode constructor that defers what only earlier ranges can
    resolve. Runs needs one that holds each file's accesses up to the
    first one no earlier access's window step can reach, and its merge
    can find that a step would have crossed a range boundary after all
    ({!Nt_analysis.Runs.stitched}). A pass with no shard side reads
    its whole input as one range. *)

type 'a shards = {
  init_shard : unit -> 'a;  (** mid-trace accumulator (ranges 1..) *)
  merge : 'a -> 'a -> 'a;  (** [merge a b] with [b] the next time range; returns [a]. *)
  stitched : 'a -> bool;
      (** false when a merge found it could not be exact: the input is
          then read again as one range *)
}

type 'a pass = {
  name : string;  (** span label: [par.pass.<name>] *)
  init : unit -> 'a;  (** root accumulator (range 0) *)
  observe : 'a -> Nt_trace.Record.t -> unit;
  finish : 'a -> unit;  (** end of input, before the result is read *)
  shards : 'a shards option;  (** [None]: the pass reads one range *)
}

val summary : Nt_analysis.Summary.t pass
val hourly : Nt_analysis.Hourly.t pass
val names : Nt_analysis.Names.t pass

val runs : ?window:float -> unit -> Nt_analysis.Runs.t pass
(** Classifies runs online with the reorder window [window] (default
    the paper's 10 ms) and the 30 s idle gap. *)

val raw_runs : Nt_analysis.Runs.t pass
(** Runs in arrival order (window 0), for Table 3's raw column; its
    span is [par.pass.rawruns]. *)

val reorder : Nt_analysis.Reorder.t pass

(** Block lifetimes over the trace week's weekday phases. *)

type phases

val lifetime : phases pass
(** One {!Nt_analysis.Lifetime} fold per weekday, Monday to Friday,
    each with its 24 h phase 1 from 9 am of that day in the
    {!Nt_util.Trace_week} calendar and a 24 h end margin. One range:
    lifetimes have no merge. *)

val covered : phases -> (Nt_util.Trace_week.day * Nt_analysis.Lifetime.result) list
(** The phases whose 48 h the trace spans (its earliest record at or
    before phase 1, its latest at or after the end of the margin), in
    weekday order. *)
