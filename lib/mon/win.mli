(** One time window of monitor state: the accumulator behind every
    nfsmon report table, built to run forever.

    A window is a monoid — [merge] is an exact sum, associative with
    {!create} as the neutral element — so the ring buffer can fold
    closed windows into its running summary with the same law-tested
    machinery the sharded batch engine uses. Boundedness comes from two
    separate mechanisms that deliberately do not interfere with the
    merge laws:

    - {e observe-time caps}: each breakdown table (client, uid, fs,
      proc) holds at most [cap] distinct keys; once full, records for
      new keys are folded into the table's [other] row and counted as
      evictions. Totals are conserved — an evicted record still counts
      everywhere except under its own key.
    - {e merge-time compaction}: [merge] itself is exact (so it stays
      associative); the ring applies {!compact} after folding a closed
      window into the long-run summary, demoting the smallest rows to
      [other] until the table fits again.

    Everything here is plain integer arithmetic over record fields —
    no floats, so equality in tests is exact. *)

type caps = {
  client_cap : int;
  uid_cap : int;
  fs_cap : int;
  proc_cap : int;  (** procedure table; 64 fits every NFS v2+v3 proc *)
}

val default_caps : caps
(** 256 clients, 256 uids, 64 filesystems, 64 procedures. *)

type row = {
  ops : int;
  read_bytes : int;
  write_bytes : int;
}

type table = [ `Client | `Uid | `Fs | `Proc ]

val table_name : table -> string
val all_tables : table list

type t

val create : ?caps:caps -> unit -> t
(** The neutral element: merging it in either direction changes
    nothing. *)

val observe : t -> Nt_trace.Record.t -> unit

val merge : t -> t -> t
(** [merge a b] folds [b] into [a] and returns [a]; [b] is left
    unchanged. Exact key-wise sum — tables may temporarily exceed
    their caps until the caller runs {!compact}. *)

val compact : t -> unit
(** Re-establish every table's cap by demoting the smallest rows
    (ties broken by key, so compaction is deterministic) into [other],
    counting them as evictions. *)

(** {1 Accessors} *)

val span : t -> (float * float) option
(** (earliest, latest) record time observed; [None] when empty. *)

val total_ops : t -> int
val read_ops : t -> int
val read_bytes : t -> int
val write_ops : t -> int
val write_bytes : t -> int
val commit_ops : t -> int
val lost_replies : t -> int
(** Records whose reply was never captured. *)

val writes_by_stable : t -> (Nt_nfs.Types.stable_how * row) list
(** WRITE calls split the way [nfs3-mon.d] reports them: plain
    (unstable), data-sync and file-sync, each with op and byte
    tallies. *)

val top : t -> table -> int -> (string * row) list
(** Top-N rows of a table by ops (ties by key), excluding [other]. *)

val other_row : t -> table -> row
(** The spill row absorbing evicted keys. *)

val table_size : t -> table -> int
val evictions : t -> table -> int
(** Keys ever folded into [other] — observe-time sheds plus
    compaction demotions. Monotone; survives [merge] by summation. *)

val evictions_total : t -> int

(** {1 Checkpoint encoding} *)

val to_json : t -> Nt_obs.Obs.Json.v
(** The window as one JSON object: [span] ([null] when empty, else
    [[earliest, latest]]), the [total]/[reads]/[writes] rows and the
    three [stable] rows as [[ops, read_bytes, write_bytes]], [commits],
    [lost], and per table its [other] row, [evicted] count and [rows]
    as [[key, ops, read_bytes, write_bytes]] in sorted key order.
    Deterministic; caps are not written. *)

val of_json : ?caps:caps -> Nt_obs.Obs.Json.v -> (t, string) result
(** Read back what {!to_json} writes, under [caps] (default
    {!default_caps}); the caller compacts. [Error] on a missing,
    duplicated or unknown key, a duplicated row key, an integer that is
    not integral or not below 2{^53}, or [null] anywhere but [span]. *)

val footprint : t -> Nt_obs.Footprint.t
(** State-footprint accounting (see {!Nt_obs.Footprint}). *)
