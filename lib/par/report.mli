(** The nfsstats report, computed by one range fold and rendered
    deterministically.

    Rendering goes through {!Nt_util.Tables.render} into strings, so a
    report is a value that can be golden-tested; and because the ranges
    merge in input order with merges the law tests hold to the
    sequential result, the same trace renders to byte-identical text at
    any range count. *)

type section = [ `Summary | `Runs | `Names | `Hourly ]

val section_name : section -> string

val range_count : int -> int
(** The range count for a [jobs] setting: [jobs], or the machine's
    recommended domain count when [jobs <= 0], at most 64. *)

val run_ranges :
  ?obs:Nt_obs.Obs.t ->
  ?timeline:Nt_obs.Timeline.t ->
  ?stitched:('r array -> bool) ->
  ranges:int ->
  sections:section list ->
  (ranges:int -> int -> (Nt_trace.Record.t -> unit) -> 'r) ->
  (section * string) list * int * 'r array
(** [run_ranges ~ranges ~sections produce] runs the requested sections
    over an input split into [ranges] contiguous ranges
    ([ranges >= 1]): [produce ~ranges i push] drives range [i]'s records
    through [push] and returns what it learned about the range. Range 0
    runs on the calling domain and folds into root accumulators; every
    later range runs on a fresh domain of its own and folds into
    shard-mode ones, so [produce] must touch no state another range
    touches. After every domain joins, [stitched] (default: always)
    judges the ranges' results, and the ranges left-fold [merge] once,
    in order. If [stitched] rejects the results, or a runs merge finds
    that a reorder-window step would have crossed a cut
    ({!Nt_analysis.Runs.stitched}), the folds are thrown away and the
    input is read again as one range, [produce ~ranges:1 0]; each such
    rerun counts once in [par.reruns{cause="stitch"}] or
    [par.reruns{cause="runs"}]. So for input in any order the text is
    byte-identical at any range count; time-sorted input never reruns
    for runs. [par.merge] gets one span per merge. For the folds it
    keeps, [par.pass.<name>] gets one span per range (the runs section
    classifies each range's runs inside its own), and a [timeline]
    gains one [par.range] interval per range on the domain that read
    it. At one
    range there is one accumulator and no merge. Peak state is the
    accumulators — the out-of-core path. Returns the sections in
    request order, the record count and the ranges' results. *)

val run_stream :
  ?obs:Nt_obs.Obs.t ->
  ?timeline:Nt_obs.Timeline.t ->
  sections:section list ->
  ((Nt_trace.Record.t -> unit) -> unit) ->
  (section * string) list * int
(** {!run_ranges} over one range: [produce push] drives the whole
    stream through [push]. *)

val run :
  ?obs:Nt_obs.Obs.t ->
  ?timeline:Nt_obs.Timeline.t ->
  ?jobs:int ->
  sections:section list ->
  Nt_trace.Record.t array ->
  (section * string) list
(** {!run_ranges} over [range_count jobs] (default 1) contiguous slices
    of an array. *)
