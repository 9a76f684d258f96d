(** The nfsstats report, computed by one range fold and rendered
    deterministically.

    Rendering goes through {!Nt_util.Tables.render} into strings, so a
    report is a value that can be golden-tested; and because the ranges
    merge in input order with merges the law tests hold to the
    sequential result, the same trace renders to byte-identical text at
    any range count. *)

type section =
  [ `Summary  (** totals and calls by procedure *)
  | `Runs  (** Table 3's processed column *)
  | `Names  (** file categories by name (§6.3) *)
  | `Hourly  (** hour-by-hour activity (Figure 4) *)
  | `Daily  (** average daily activity (Table 2) *)
  | `Variance  (** all-hours vs peak-hours variance (Table 5) *)
  | `Rawruns  (** Table 3's raw column: arrival order, 1-block jumps *)
  | `Sizes  (** bytes accessed by file size (Figure 2) *)
  | `Seqmetric  (** the sequentiality metric (Figure 5) *)
  | `Lifetime  (** block lifetimes (Table 4, Figure 3) *)
  | `Reorder  (** swaps by reorder window and out-of-order pairs (Figure 1, §4.1.5) *) ]
(** A section reads one fold, and folds are shared: [daily] reads the
    summary fold, [variance] the hourly one, and [runs], [sizes] and
    [seqmetric] one runs fold between them, so a report folds each at
    most once. [lifetime]'s fold has no merge: a report that asks for
    it reads its input as one range. *)

val all_sections : section list
(** Every section, in the order nfsstats documents them. *)

val section_name : section -> string

(** {1 The paper's tables}

    Each table's rows, as its section prints them; the benchmark
    harness sets the paper's values beside them. *)

type table = { header : string list; rows : string list list }

val daily_header : string list

val daily_row : Nt_analysis.Summary.daily -> string list
(** Table 2's columns for one system. *)

val variance_table : Nt_analysis.Hourly.t -> table
(** Table 5: mean and standard deviation per hour, all vs peak hours. *)

val table3_rows : Nt_analysis.Runs.table3 -> string list list
(** Table 3's breakdown rows, [[pattern; percent]]. *)

val sizes_table : Nt_analysis.Runs.t -> table
(** Figure 2 over a finished runs fold. *)

val seqmetric_table : Nt_analysis.Runs.t -> table
(** Figure 5 over a finished runs fold. *)

val reorder_table : Nt_analysis.Reorder.t -> table
(** Figure 1: swapped % per window, over a finished reorder fold. *)

type phases = (Nt_util.Trace_week.day * Nt_analysis.Lifetime.result) list
(** The weekday phases a trace covers ({!Passes.covered}). *)

val phase_mean : phases -> (Nt_analysis.Lifetime.result -> float) -> float
(** The mean over the phases. *)

val lifetime_table : ?scale:float -> phases -> table
(** Table 4: births and deaths summed over the phases, their causes and
    the end surplus averaged. With [scale], the totals also show
    rescaled by [1 / scale], in millions. *)

val lifetime_cdf : phases -> (float * float) list
(** Figure 3: the phases' lifetime CDFs merged, each weighted by its
    deaths. *)

val cdf_value : (float * float) list -> float -> float
(** The CDF's fraction at a lifetime (seconds). *)

val cdf_table : phases -> table
(** Figure 3 at the lifetimes the paper discusses, 1 s to 1 day. *)

(** {1 Running a report} *)

type values = {
  summary : Nt_analysis.Summary.t option;
  hourly : Nt_analysis.Hourly.t option;
  names : Nt_analysis.Names.t option;
  runs : Nt_analysis.Runs.t option;  (** finished *)
  raw_runs : Nt_analysis.Runs.t option;  (** finished *)
  lifetime : phases option;
  reorder : Nt_analysis.Reorder.t option;  (** finished *)
}
(** The merged folds of a report; [None] for a fold no requested
    section reads. *)

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
    through [push] and returns what it learned about the range. A
    request with a one-range section reads [ranges:1]. Range 0
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

type handle
(** One range pushed record by record. *)

val start :
  ?obs:Nt_obs.Obs.t ->
  ?timeline:Nt_obs.Timeline.t ->
  ?window:float ->
  sections:section list ->
  unit ->
  handle
(** A root range of the folds [sections] read, as range 0 of
    {!run_ranges}; [window] is the runs fold's reorder window (default
    the paper's 10 ms). *)

val push : handle -> Nt_trace.Record.t -> unit

val finish : handle -> (section * string) list * int * values
(** End of input: the sections in request order, the record count and
    the folds' values, with one [par.pass.<name>] span per fold and a
    [par.range] interval on [timeline]. The handle must not be pushed
    to afterwards. *)

val run_stream :
  ?obs:Nt_obs.Obs.t ->
  ?timeline:Nt_obs.Timeline.t ->
  sections:section list ->
  ((Nt_trace.Record.t -> unit) -> unit) ->
  (section * string) list * int
(** A {!start}ed handle: [produce push] drives the whole stream
    through {!push}, then {!finish}. *)

val run :
  ?obs:Nt_obs.Obs.t ->
  ?timeline:Nt_obs.Timeline.t ->
  ?jobs:int ->
  sections:section list ->
  Nt_trace.Record.t array ->
  (section * string) list
(** {!run_ranges} over [range_count jobs] (default 1) contiguous slices
    of an array. *)
