(** Per-file I/O access collection, shared by the run, reorder and
    sequentiality analyses.

    Each READ/WRITE record contributes one access to its file's
    chronological list. Lists preserve wire arrival order — exactly what
    the paper's reorder-window technique then (partially) sorts. *)

type access = {
  at : float;  (** wire time of the call *)
  offset : int;  (** bytes *)
  count : int;  (** bytes actually moved *)
  is_read : bool;
  at_eof : bool;  (** the access referenced end-of-file *)
  file_size : int;  (** file size when the access completed *)
}

type t

val create : unit -> t

val observe : t -> Nt_trace.Record.t -> unit
(** Collect READ/WRITE records (others are ignored). Lost-reply reads
    still count with the requested byte count, as the paper's tools
    must assume. *)

val merge : t -> t -> t
(** [merge a b] splices [b]'s per-file access lists after [a]'s and
    returns [a]; [b] must cover the later time range and must not be
    used afterwards. The merged log is structurally identical to the
    sequential single-pass log — every downstream analysis (runs,
    reorder window, sequentiality metric) is a pure function of the
    per-file access lists, so open runs and reorder windows that
    straddle a shard boundary are carried across it exactly. *)

val files : t -> int
val accesses : t -> int

val iter_files : t -> (Nt_nfs.Fh.t -> access array -> unit) -> unit
(** Visit each file's accesses in arrival order. *)

val sorted_files : t -> (Nt_nfs.Fh.t * access array) array
(** Every file's accesses in arrival order, as an array sorted by
    {!Nt_nfs.Fh.compare} — a deterministic snapshot independent of hash
    table iteration order, so terminal analyses visit files in the same
    order however the log was merged. *)

val sort_window : float -> access array -> access array * int
(** [sort_window w accesses] applies the paper's reorder window: each
    access may be swapped with a nearby later access (within [w]
    seconds) when they are out of ascending offset order. Returns the
    partially sorted copy and the number of swaps performed. [w = 0]
    returns an unchanged copy. *)

val footprint : t -> Nt_obs.Footprint.t
(** State-footprint accounting (see {!Nt_obs.Footprint}): tracked
    entries and an approximate heap-words estimate. *)
