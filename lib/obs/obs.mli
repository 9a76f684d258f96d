(** Unified observability: a registry of labeled counters, gauges and
    fixed-bucket histograms, plus lightweight nested stage spans, with
    JSON and Prometheus text exporters.

    The paper's tracer ran unattended for months; that only works when
    the tool reports on itself — capture loss, decode failures and
    throughput are first-class results (§4.1.4). Every pipeline stage
    registers its accounting here so one snapshot document describes a
    whole run.

    Cost contract: a metric handle is resolved once (at component
    creation), so hot-path updates are one load, one branch and one
    store. When the registry is disabled the branch fails and nothing
    else happens — no clock reads, no allocation. [null] is a shared,
    permanently disabled registry for callers that want instrumentation
    compiled down to that single branch. *)

type t
(** A metric registry. Instances are independent; components default to
    a private always-enabled registry so their accessors keep working
    when the caller does not wire one through. *)

val create : ?enabled:bool -> ?clock:(unit -> float) -> unit -> t
(** [enabled] defaults to [true]. [clock] (seconds, default
    [Unix.gettimeofday]) is read through a monotonic clamp: observed
    time never goes backwards even if the source does. *)

val null : t
(** Shared, permanently disabled registry; {!set_enabled} on it is
    ignored. *)

val enabled : t -> bool
val set_enabled : t -> bool -> unit

val now : t -> float
(** The registry's monotonically clamped clock. *)

(** {1 Metrics}

    Registration is idempotent: the same name and label set returns the
    same underlying metric. Re-registering a name under a different
    metric kind raises [Invalid_argument]. Labels are sorted
    canonically, so label order does not matter. *)

type labels = (string * string) list

type counter

val counter : t -> ?labels:labels -> ?help:string -> string -> counter
val inc : counter -> unit
val add : counter -> int -> unit
(** No-ops while the registry is disabled. Negative [add] amounts are
    ignored — counters are monotone. *)

val value : counter -> int

type gauge

val gauge : t -> ?labels:labels -> ?help:string -> string -> gauge
val set : gauge -> float -> unit
val set_max : gauge -> float -> unit
(** [set_max g v] keeps the peak: the gauge only moves up. *)

val gauge_value : gauge -> float

type histogram

val histogram : t -> ?labels:labels -> ?help:string -> buckets:float list -> string -> histogram
(** [buckets] are upper bounds, sorted ascending; an implicit +infinity
    bucket catches the rest. *)

val observe : histogram -> float -> unit
val histogram_count : histogram -> int
val histogram_sum : histogram -> float

(** {1 Stage spans}

    Monotonic-clock start/stop pairs with nesting: a span opened while
    another is open is recorded under the path
    ["parent/child"]. Aggregation is by path — count, total, min and
    max seconds. Disabled registries skip the clock read entirely. *)

val span_open : t -> string -> unit

val span_close : t -> string -> unit
(** Closes the innermost open span (the name is checked only
    informally; a mismatched or extra close is ignored rather than
    raised — observability must never take the pipeline down). *)

val with_span : t -> string -> (unit -> 'a) -> 'a
(** [with_span t name f] runs [f] inside a span; the span closes even
    if [f] raises. *)

val reanchor : t -> unit
(** Re-anchor the registry on the current clock after a checkpoint
    restore: the monotonic clamp is released down to the clock's
    present reading and every open span is re-stamped to start {e now},
    so downtime is attributed to no span and a wall clock that stepped
    backward across the restart can never yield a negative or wrapped
    duration. Ignored on {!null}. *)

(** {2 Trace sink}

    A registered sink sees every span transition on the registry —
    path, clamped timestamp — which is how {!Timeline} mirrors span
    activity into a Chrome-trace export without the registry knowing
    about timelines. The sink is consulted only on the enabled path
    (plus {!reanchor}), so the disabled-registry cost contract is
    untouched. *)

type sink = {
  on_span_open : string -> float -> unit;  (** full path, start time *)
  on_span_close : string -> float -> unit;  (** full path, stop time *)
  on_reanchor : float -> unit;  (** the re-anchored clock reading *)
}

val set_trace_sink : t -> sink option -> unit
(** At most one sink; [None] detaches. Ignored on {!null}. *)

val span_record : t -> string -> seconds:float -> unit
(** Record one completed span of the given duration without touching
    the registry clock, attributed under the currently open span path.
    This is how work timed on another domain (e.g. a range of the
    range fold) is folded into a single-domain registry: workers
    measure, the coordinator records. Negative durations clamp to 0. *)

(** {1 JSON values}

    Every JSON document the tools write is a {!Json.v} printed by
    {!Json.to_buffer}, and the same module parses them back — enough
    JSON to validate and interrogate our own exports (and the bench's
    snapshot schema) without an external dependency. Numbers are
    floats; object member order is preserved; duplicate keys keep
    their first occurrence for {!member}. *)

module Json : sig
  type v =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of v list
    | Obj of (string * v) list

  val max_depth : int
  (** 512: the deepest nesting of arrays and objects {!parse} accepts,
      far above any document the tools write. *)

  val parse : string -> (v, string) result
  (** Rejects trailing garbage; the whole input must be one value.
      Nesting deeper than {!max_depth} is [Error "nesting too deep"],
      found before the parser recurses further. *)

  val to_buffer : Buffer.t -> v -> unit
  (** The one printer. Layout: compact, no whitespace, no newline.
      Strings: the double quote, the backslash and bytes below 0x20
      are escaped (the latter as [\u00XX]); every other byte passes
      through unchanged.
      Numbers: an integral value with |v| < 2{^53} prints as an
      integer; any other finite value as the shortest of
      [%.15g]/[%.16g]/[%.17g] that reads back to the same double; a
      non-finite value as [null]. So [parse (to_string v) = Ok v] for
      every [v] without non-finite numbers. *)

  val to_string : v -> string

  val int : int -> v
  (** [Num (float_of_int i)]. *)

  val member : string -> v -> v option
  val to_num : v -> float option
  val to_str : v -> string option
  val to_list : v -> v list option

  val to_int : v -> int option
  (** [Some] only for an integral number with |v| < 2{^53}, the range
      where a JSON number holds every integer exactly. *)

  val fields : string list -> v -> (v list, string) result
  (** [fields keys v]: the members of object [v], in the order of
      [keys]. [Error] unless [v] is an object that carries each key
      exactly once and no other. *)

  val find_metric : v -> ?labels:(string * string) list -> string -> v option
  (** Look up a metric object by name (and exact label set) inside a
      parsed nt_obs snapshot. *)

  val metric_number : v -> ?labels:(string * string) list -> string -> float option
  (** The ["value"] field of {!find_metric}'s result. *)
end

(** {1 Snapshots and exporters} *)

type metric_value =
  | Counter of int
  | Gauge of float
  | Histogram of { le : float list; counts : int list; sum : float; count : int }
      (** [counts] has one entry per [le] bound plus a final overflow
          bucket. *)

type metric = { name : string; labels : labels; help : string; value : metric_value }
type span_stat = { path : string; count : int; total_s : float; min_s : float; max_s : float }

type snapshot = {
  taken_at : float;  (** registry clock at snapshot time *)
  snap_enabled : bool;
  metrics : metric list;  (** sorted by (name, labels) *)
  spans : span_stat list;  (** sorted by path *)
}

val snapshot : t -> snapshot

val get_counter : snapshot -> ?labels:labels -> string -> int option
val sum_counter : snapshot -> string -> int
(** Sum of a counter across all label sets (0 when absent). *)

val get_gauge : snapshot -> ?labels:labels -> string -> float option
val get_span : snapshot -> string -> span_stat option

val to_json : snapshot -> string
(** One self-describing JSON document ([{"schema":"nt_obs/1", ...}])
    on one line, newline-terminated. *)

val to_prometheus : snapshot -> string
(** Prometheus text exposition format. Metric names are sanitised
    ([.-] become [_]); spans export as [nt_span_seconds_total] /
    [nt_span_count] with a [path] label. *)
