(** Run detection and access-pattern classification (§4.2, §5.1), as
    one online fold.

    NFS has no open/close, so runs are synthesised from each file's
    access stream per the paper's heuristic: the reorder window first
    partially sorts the stream, then a run ends when its last access
    referenced end-of-file or the next one comes more than 30 seconds
    later. Each run is classified entire / sequential / random with
    offsets and counts rounded to 8 KB blocks, under the strict rule
    (every access starts within 1 block of where the previous one
    ended) and under the paper's processed rule (within 10 blocks).

    The fold keeps, per file, only the accesses still waiting for their
    window step and a summary of the open run; a run is classified and
    tallied for Table 3 and Figures 2 and 5 as soon as it closes. *)

type pattern = Entire | Sequential | Random

val pattern_to_string : pattern -> string

type t

val create : ?window:float -> unit -> t
(** A fold from the start of a trace. [window] is the reorder window
    (seconds, default the paper's 0.01; [0.] leaves the stream in
    arrival order). *)

val create_shard : ?window:float -> unit -> t
(** A fold for a later range of the trace, which must not assume it
    saw each file's first access; [window] as for {!create}. Per file
    it holds the raw accesses until
    the cut: the first access more than the window later than every
    earlier one it holds, and more than 60 s later than the shard's
    first access. The window step of an earlier access may still reach
    the held ones, and none of the shard's own reaches past the cut;
    the 60 s let an earlier range's accesses run ahead of the shard by
    as much as nfstrace's output is out of time order (a call that
    expires unanswered is written 60 s late). From the cut on the shard
    folds online, leaving uncounted the run that starts there, which
    may continue the earlier range's open run. *)

val observe : t -> Nt_trace.Record.t -> unit
(** Fold a record's access (see {!Io_log.of_record}). *)

val add : t -> Nt_nfs.Fh.t -> Io_log.access -> unit
(** Fold one access of a file, in arrival order. *)

val merge : t -> t -> t
(** [merge a b] folds shard [b] (the next range) into root or merged
    [a] and returns [a]; [b] must not be used afterwards. Per file it
    replays [b]'s held accesses into [a]. If [b] cut, and the cut is
    more than the window later than every access still pending in
    [a]'s window, no window step crosses the cut: [a]'s window drains,
    the split rule joins [b]'s first run to [a]'s open run or closes
    that one, and [a] adopts [b]'s window and open run. Then the merge
    is exact: integer results equal the one-range fold's, float sums
    up to reassociation. Otherwise the merge marks [a] not
    {!stitched}, and the caller must fold the input again as one
    range. Time-sorted input always stitches. *)

val stitched : t -> bool
(** False once a merge met a cut the window step of an earlier access
    could cross. *)

val finish : t -> unit
(** End of input: drain every window and count every open run. The
    tallies below read only counted runs. *)

val swaps : t -> int
(** Window steps that swapped two accesses (Figure 1). *)

val footprint : t -> Nt_obs.Footprint.t
(** State-footprint accounting (see {!Nt_obs.Footprint}): one card per
    file with state, words for windows, open runs and held accesses. *)

(** Table 3: the entire/sequential/random breakdown. *)
type table3_row = { entire_pct : float; sequential_pct : float; random_pct : float }

type table3 = {
  reads_pct : float;  (** read-only runs as % of all runs *)
  writes_pct : float;
  rw_pct : float;
  read : table3_row;  (** percentages within read-only runs *)
  write : table3_row;
  rw : table3_row;
  total_runs : int;
}

val table3 : ?strict:bool -> t -> table3
(** Under the 10-block rule, or the 1-block rule when [strict]. *)

(** Figure 2: percentage of bytes accessed vs file size, by category
    (10-block rule). *)
type size_curve = {
  edges : float array;  (** file-size bucket upper edges (bytes) *)
  total : float array;  (** cumulative % of all bytes, per bucket *)
  entire : float array;
  sequential : float array;
  random : float array;
}

val by_file_size : t -> size_curve

val sequentiality : t -> Seqmetric.curve
(** Figure 5 over the counted runs. *)
