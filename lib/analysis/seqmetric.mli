(** The sequentiality metric (§6.4, Figure 5).

    A finer-grained alternative to entire/sequential/random, derived
    from Smith's layout score: the fraction of a run's accesses that
    are c-consecutive with their predecessor (within [c] blocks of
    where the previous access ended). [c = 10] is the paper's "small
    jumps allowed" variant; [c = 1] is strict consecutiveness. *)

val run_metric : ?block:int -> c:int -> Io_log.access array -> float
(** Metric for one run; 1.0 for singleton runs. *)

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

val analyze : ?window:float -> Io_log.t -> curve
(** Figure 5: average sequentiality metric vs bytes accessed in the run
    (log buckets 16 KB – 64 MB), reads and writes, both c values, plus
    the cumulative run-size distribution. Applies the reorder-window
    sort first ([window] in seconds, default 0.01). *)
