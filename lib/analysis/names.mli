(** Predicting file attributes from file names (§6.3).

    The paper's finding: on CAMPUS nearly every file falls into one of
    four name-identifiable categories (lock files, dot files, mail
    composer files, mailboxes), each with a sharply predictable size,
    lifespan and access pattern; EECS names are also strong predictors.
    This module categorises by the last pathname component, accumulates
    per-category attribute distributions, and runs the
    train-on-first-half / test-on-second-half prediction experiment.

    Only some categories survive {!Nt_trace.Anonymize} with its default
    configuration: those keyed on a marker it keeps or a name it
    preserves. [Lock] ([.lock], [lock]), [Autosave] ([#…#]), [Backup]
    ([~]), [Rcs_archive] ([,v]), [Dot_file] (the leading dot) and
    [Mailbox] for the preserved [.inbox], [mbox] and [inbox] do. The
    categories keyed on a suffix or a prefix the anonymizer maps do not:
    [Source] ([.c], [.h], [.ml], [Makefile]), [Object_file] ([.o]),
    [Dataset] ([.dat], [.out]), [Log_index] ([.log], [.db]; an
    anonymized [.history] is a [Dot_file]), [Temp_build], [Applet],
    [Browser_cache], [Mail_composer] and [saved-] mailboxes. Their files
    fall into [Other]: on an anonymized EECS trace, 1,237 of 1,445 files
    did, against 178 on the raw trace. *)

type category =
  | Lock
  | Mailbox
  | Mail_composer
  | Dot_file
  | Applet
  | Browser_cache
  | Temp_build
  | Autosave
  | Backup
  | Rcs_archive
  | Source
  | Object_file
  | Log_index
  | Dataset
  | Other

val categorize : string -> category
val category_to_string : category -> string
val all_categories : category list

type t

val create : unit -> t
val observe : t -> Nt_trace.Record.t -> unit

val create_shard : unit -> t
(** An accumulator for a non-initial trace shard: unlike a {!create}d
    (root) one, it cannot assume an unknown (dir, name) key is unbound
    or an unknown handle is unnamed. It defers unresolvable REMOVEs and
    banks I/O on unknown handles for {!merge} to settle. *)

val merge : t -> t -> t
(** [merge a b] folds shard [b] (the next time range) into root/merged
    accumulator [a] and returns [a]; [b] must not be used afterwards.
    Deferred REMOVEs replay in time order against [a]'s bindings,
    orphan I/O resolves against files [a] already knows (and is dropped
    otherwise, matching the sequential pass), per-file infos combine
    with first-sight-wins category/created and earliest-time deleted
    (the sequential pass stamps the first successful REMOVE, which a
    merge-time replay may follow), and [b]'s binding
    end-states override [a]'s. Left folds in shard order reproduce the
    sequential pass exactly up to float reassociation in byte sums
    (assuming the server does not reuse a file handle within the
    trace). *)

type category_stats = {
  files_seen : int;  (** distinct files bearing this category's names *)
  created_deleted : int;  (** created AND deleted inside the window *)
  median_size : float;
  median_lifetime : float;  (** of created+deleted files; nan if none *)
  read_only_pct : float;
  write_only_pct : float;
}

val stats : t -> (category * category_stats) list

val created_deleted_total : t -> int

val byte_share : t -> category -> float
(** Fraction (0-1) of all READ+WRITE bytes that touched files of this
    category (paper: >95% of CAMPUS data movement is inboxes). *)

val unique_file_share : t -> category -> float
(** Fraction of distinct files seen that belong to the category
    (paper: ~20% inboxes, ~50% locks on CAMPUS during peak hours). *)

val lock_created_deleted_pct : t -> float
(** % of created-and-deleted files that are locks (paper: 96% CAMPUS). *)

val lock_lifetime_under : t -> float -> float
(** Fraction of lock lifetimes <= the given seconds (paper: 99.9%
    under 0.40 s). *)

val composer_size_under : t -> float -> float
(** Fraction of mail-composer files at or below a size (98% <= 8 KB). *)

val composer_lifetime_under : t -> float -> float

type prediction = {
  tested : int;
  size_accuracy : float;  (** size-class prediction accuracy, 0–1 *)
  lifetime_accuracy : float;
  pattern_accuracy : float;
}

val predict : t -> prediction
(** Learn each category's majority size / lifetime / access-pattern
    class on files created in the first half of the window; test on the
    second half. *)

val footprint : t -> Nt_obs.Footprint.t
(** State-footprint accounting (see {!Nt_obs.Footprint}): tracked
    entries and an approximate heap-words estimate. *)
