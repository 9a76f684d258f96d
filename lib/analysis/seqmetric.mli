(** The sequentiality metric (§6.4, Figure 5).

    A finer-grained alternative to entire/sequential/random, derived
    from Smith's layout score: the fraction of a run's accesses that
    are c-consecutive with their predecessor (within [c] blocks of
    where the previous access ended). [c = 10] is the paper's "small
    jumps allowed" variant; [c = 1] is strict consecutiveness. The runs
    come from {!Runs}' fold, which tallies each one here as it closes. *)

val metric : pairs:int -> consecutive:int -> float
(** The metric of a run with [pairs] successive access pairs of which
    [consecutive] are c-consecutive; 1.0 for singleton runs. *)

type tally
(** Per run-size bucket sums of the metric, for read-only and
    write-only runs, plus the run counts. *)

val tally : unit -> tally

val add_run :
  tally -> bytes:int -> reads:bool -> writes:bool -> pairs:int -> allowed:int -> strict:int -> unit
(** Count one run of [bytes] accessed bytes that holds reads and/or
    writes, with [allowed] 10-consecutive and [strict] 1-consecutive
    pairs among its [pairs]. *)

val add_tally : tally -> tally -> unit
(** [add_tally a b] adds [b]'s sums and counts into [a]. *)

type curve = {
  bucket_edges : float array;  (** bytes-accessed bucket upper edges *)
  read_allowed : float array;  (** avg metric of read runs, c = 10 *)
  read_strict : float array;  (** c = 1 *)
  write_allowed : float array;
  write_strict : float array;
  cum_total_runs : float array;  (** cumulative % of runs by size *)
  cum_read_runs : float array;  (** as % of all runs *)
  cum_write_runs : float array;
}

val curve : tally -> curve
(** Figure 5: average sequentiality metric vs bytes accessed in the run
    (log buckets 16 KB – 64 MB), reads and writes, both c values, plus
    the cumulative run-size distribution. *)
