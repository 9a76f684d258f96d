(** The modified-server read-ahead experiment (§6.4).

    The paper modified the FreeBSD 4.4 NFS server to drive its
    read-ahead heuristic with a simplified sequentiality metric and
    measured >5% end-to-end improvement on large sequential transfers
    when ~10% of requests arrive reordered. This module reproduces the
    mechanism: a request stream for a large sequential read is
    perturbed by nfsiod-style reordering and served against the
    {!Disk} model under each heuristic.

    - [Fragile]: classic FFS-style detection — prefetch only while each
      request starts exactly where the previous ended; a single
      out-of-order request flips the file to "random" and disables
      read-ahead until sequential behaviour re-establishes.
    - [Metric]: maintain the fraction of recent requests that were
      c-consecutive and keep prefetching while the score stays high, so
      isolated swaps do not kill read-ahead. *)

type policy = No_readahead | Fragile | Metric

val policy_name : policy -> string

type state
(** One file's request history, shared by every policy: where the last
    request ended, and whether each of the last 32 requests landed
    within c = 10 blocks of the one before it. *)

val state : unit -> state

val observe : state -> block:int -> nblocks:int -> unit
(** Record a request for [nblocks] blocks starting at [block]. *)

val prefetch : policy -> state -> bool
(** Whether [policy] prefetches after the last observed request:
    [Fragile] when it started where the one before it ended, [Metric]
    while at least 75% of the recent requests were c-consecutive. *)

val prefetch_depth : int
(** Blocks read ahead past the request when {!prefetch} says so. *)

type outcome = {
  total_time : float;  (** end-to-end service time for the stream *)
  disk_time : float;  (** platter time consumed *)
  requests : int;
  reordered : int;  (** requests that arrived out of ascending order *)
}

val run :
  ?seed:int64 ->
  ?file_blocks:int ->
  ?reorder_fraction:float ->
  ?window:int ->
  policy ->
  outcome
(** Serve one large sequential transfer ([file_blocks], default 2048 =
    16 MB) whose request order has [reorder_fraction] of requests
    displaced within [window] positions (default 3, matching the
    paper's "vast majority of seeks were to blocks two or three
    away"). *)

val speedup : baseline:outcome -> outcome -> float
(** Percentage end-to-end improvement over [baseline]. *)
