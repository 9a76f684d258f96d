(** The report's analyses packaged as accumulator passes.

    A pass is an accumulator factory pair plus [observe] and [merge]:
    the first range of a trace gets a root accumulator (it really does
    start the trace), every later range gets a shard-mode one (which
    must not assume it saw the beginning), and {!Report} left-folds
    [merge] over the ranges in order. Summary and hourly are
    position-independent, so their shard accumulator is the plain empty
    one. Names needs the shard-mode constructor that defers what only
    earlier ranges can resolve. Runs needs one that holds each file's
    accesses up to the first one no earlier access's window step can
    reach, and its merge can find that a step would have crossed a
    range boundary after all ({!Nt_analysis.Runs.stitched}). *)

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
val names : Nt_analysis.Names.t pass

val online_runs : Nt_analysis.Runs.t pass
(** Classifies runs online with the paper's 10 ms reorder window and
    30 s idle gap. *)
