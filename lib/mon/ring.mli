(** The ring buffer of time-window accumulators.

    Record time (not wall time) drives the ring: window [k] covers
    [[k*window_s, (k+1)*window_s)], so boundaries are exact multiples of
    the window length and every run over the same records rotates at the
    same instants regardless of arrival pacing. When the ring is full,
    the oldest window is folded into a long-run {e summary} window with
    {!Win.merge} and the summary is re-bounded with {!Win.compact} — so
    total counts are conserved forever while live memory stays
    O(ring windows * table caps + summary cap).

    Clock anomalies rotate or clamp, never corrupt:
    - a record {e older} than the current window lands in the retained
      window that covers it, or in the summary when it has already
      scrolled off (counted as [late]);
    - a {e backward} step versus the newest time seen is counted
      ([backward]) but handled by the same late-routing;
    - a {e forward} jump farther than the whole ring span flushes every
      live window to the summary and re-anchors the ring at the jump
      target (counted as [forward_jumps]) instead of spinning through
      millions of empty rotations. *)

type t

type config = {
  window_s : float;  (** window length, seconds; must be > 0 *)
  windows : int;  (** live windows retained; must be >= 1 *)
  caps : Win.caps;  (** per-window table caps *)
  summary_cap : Win.caps;  (** long-run summary table caps *)
}

val default_config : config
(** 10 s windows, 30 retained, default caps, 4x caps on the summary. *)

val create : config -> t

val observe : t -> Nt_trace.Record.t -> unit

val force_rotate : t -> unit
(** Close the current window as if its boundary had passed — used at
    shutdown so the final partial window reaches the summary path. *)

(** {1 State} *)

val current : t -> (float * Win.t) option
(** (start, window) of the newest live window. *)

val live : t -> (float * Win.t) list
(** Live windows, newest first. *)

val summary : t -> Win.t
val anchored : t -> bool
(** False until the first record anchors the ring. *)

val newest : t -> float option
(** Latest record time seen — the monitor's notion of "now" on the
    feed clock. *)

val totals : t -> Win.t
(** A fresh window holding live + summary merged: the whole run's
    conserved totals. O(live state), built per call. *)

(** {1 Counters} *)

val observed : t -> int
val rotations : t -> int
val evicted_windows : t -> int
val late : t -> int
val backward : t -> int
val forward_jumps : t -> int

val evictions : t -> (Win.table * int) list
(** Per-table eviction totals summed across live windows and the
    summary (compaction included). *)

(** {1 Checkpoint encoding} *)

val to_json : t -> Nt_obs.Obs.Json.v
(** The ring as one JSON object: its counters, [cur_start] and
    [max_seen] ([null] before the first record), the live [windows]
    newest first as [[start, window]], and the [summary] window (see
    {!Win.to_json}). *)

val of_json : config -> Nt_obs.Obs.Json.v -> (t, string) result
(** Restore under the given config; window contents revive under the
    config's caps and are compacted immediately. [Error] on any key,
    integer or [null] that {!Win.of_json}'s rules refuse. *)

val footprint : t -> Nt_obs.Footprint.t
(** State-footprint accounting (see {!Nt_obs.Footprint}). *)
