(** Reorder-window analysis (paper §4.2, Figure 1), as one online fold.

    Measures how many accesses get swapped when the reorder window is
    applied at each of Figure 1's window sizes, reproducing the knee the
    paper uses to pick 5 ms (EECS) and 10 ms (CAMPUS) windows, and
    quantifies raw out-of-order arrivals for the §4.1.5 nfsiod
    experiment. Each window size is a {!Runs} fold of its own; the
    out-of-order count keeps each file's first and latest offset. *)

type t

val windows_ms : float list
(** Figure 1's window sizes: 0 to 50 ms. *)

val create : unit -> t
(** A fold from the start of a trace. *)

val create_shard : unit -> t
(** A fold for a later range of the trace (see {!Runs.create_shard}). *)

val observe : t -> Nt_trace.Record.t -> unit

val merge : t -> t -> t
(** [merge a b] folds shard [b] (the next range) into root or merged
    [a] and returns [a]; [b] must not be used afterwards. Exact when
    {!stitched}: the window folds merge as {!Runs.merge} does, and each
    file's first access in [b] pairs with its latest in [a]. *)

val stitched : t -> bool
(** False once a window fold's merge met a cut a window step could
    cross ({!Runs.stitched}). *)

val finish : t -> unit
(** End of input: every window fold takes its last steps. *)

val swapped : t -> (float * float) list
(** [(window_ms, percent_of_accesses_swapped)] for each window size,
    over a finished fold. *)

val knee : (float * float) list -> float
(** Smallest window (ms) after which growing the window further yields
    < 10% relative improvement — the paper's "knee" selection rule. *)

val out_of_order : t -> float
(** Fraction of consecutive same-file access pairs whose offsets run
    backwards in arrival order — the raw reordering level (the paper
    observed up to ~10% under load). *)

val footprint : t -> Nt_obs.Footprint.t
(** State-footprint accounting (see {!Nt_obs.Footprint}): the window
    folds' and one card per file for the out-of-order pairs. *)
