(** The supervised monitor loop: feed in, bounded windows, periodic
    reports, checkpoints, and graceful degradation — the piece that
    turns the batch pipeline into something that can run for ten weeks.

    One [step] is one bounded unit of work: pull at most [pull_batch]
    feed events into the shedding ingest queue, analyze at most
    [drain_max] queued records into the ring, then do the housekeeping
    (report on rotation, checkpoint on the wall clock, watchdog, idle
    backoff). Nothing in a step is unbounded, so report latency is
    bounded by construction even when the feed outruns analysis — the
    queue sheds oldest-first and every shed is counted.

    Accounting is registry-first (like {!Nt_core.Pipeline.run_stats}):
    the conservation law the soak test asserts is

    [mon.ingested = mon.shed + mon.observed + queue depth]

    and after {!shutdown} (which drains the queue) the depth term is
    zero. Table evictions move ops between a keyed row and the [other]
    row {e within} windows and are counted separately
    ([mon.evictions{table}]) — they never break record conservation.

    Crash safety: with a checkpoint path configured, state is saved
    atomically every [checkpoint_every_s] and on shutdown; [create]
    restores it when present, re-adds the saved counters, re-anchors
    open spans on the current clock ({!Nt_obs.Obs.reanchor}) and seeks
    the feed back to the checkpointed offset, so a kill -9 merely
    replays the suffix since the last save. *)

type config = {
  ring : Ring.config;
  topn : int;  (** rows per breakdown table in reports *)
  report_every : int;  (** emit a report every N window rotations *)
  queue_cap : int;
  pull_batch : int;
  drain_max : int;
  backoff_base_s : float;
  backoff_cap_s : float;  (** capped exponential idle backoff *)
  checkpoint_path : string option;
  checkpoint_every_s : float;
  max_records : int option;  (** stop after observing this many (soaks) *)
  idle_exit : int option;  (** stop after N consecutive idle rounds *)
  json : bool;  (** emit JSON report lines instead of tables *)
}

val default_config : config

type t

val create :
  ?obs:Nt_obs.Obs.t ->
  ?clock:(unit -> float) ->
  ?sleep:(float -> unit) ->
  ?emit:(string -> unit) ->
  ?tick:(unit -> unit) ->
  config ->
  Feed.t ->
  t
(** [clock]/[sleep] (defaults [Unix.gettimeofday]/[Unix.sleepf]) are
    injectable so endurance tests run on a synthetic clock. [emit]
    receives rendered reports (default stdout). [tick] runs once per
    step — the CLI polls the metrics socket there. Restore-on-start
    happens here when [checkpoint_path] names an existing file. *)

val step : t -> [ `Continue | `Stopped ]
val run : t -> unit
(** [step] until stopped. *)

val request_stop : t -> unit
(** Signal-safe: sets a flag the next [step] honors. *)

val shutdown : t -> unit
(** Graceful teardown: drain the queue completely, close the final
    window into the summary, emit a last report, save a final
    checkpoint, close the feed. Idempotent. *)

val conservation : t -> (unit, string) result
(** Check the conservation law above plus ring-internal agreement;
    [Error] describes the first violated identity. *)

val report_text : t -> string
val report_json : t -> string

val ring : t -> Ring.t
val obs : t -> Nt_obs.Obs.t

val sampler : t -> Nt_obs.Sampler.t
(** The service's resource sampler: ticked per drained record, sampled
    at every report, publisher of the [mon.*] component footprints.
    Wire [Nt_obs.Sampler.series_json] of this into the exporter's
    [/series] endpoint. *)

val ingested : t -> int
val shed : t -> int
val observed : t -> int
val queue_depth : t -> int
val reports_emitted : t -> int
val restored : t -> bool
(** True when this instance revived from a checkpoint. *)
