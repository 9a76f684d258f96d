(** Chrome trace-event / Perfetto-loadable span timeline.

    Spans export as duration Begin/End pairs and sampler readings as
    Counter events; load the written file straight into
    [ui.perfetto.dev] or [chrome://tracing]. Invariants the export
    keeps per track (tid): timestamps are monotone non-decreasing,
    every Begin has a matching End, and spans nest strictly — enforced
    by a per-track clamp and open-span stack, and property-tested.

    Coordinator spans arrive through {!attach}, which registers an
    {!Obs.sink} so every [Obs.span_open]/[span_close]/[reanchor] is
    mirrored as an event on the creating domain's track. Worker
    domains never touch the shared timeline: they append completed
    spans into private {!buf}s (one per worker) that the
    coordinator {!absorb}s in-order at join — no cross-domain
    mutation, same discipline as [Obs.span_record].

    The event store is bounded: past [cap], whole spans are dropped
    (never half of one — Ends still emit to balance already-emitted
    Begins) and counted in {!dropped}. *)

type t

val create : ?cap:int -> unit -> t
(** [cap] (default 200k) bounds stored events. The creating domain's
    id becomes the main track. *)

(** {1 Recording} *)

val span_begin : t -> tid:int -> name:string -> ts:float -> unit
val span_end : t -> tid:int -> name:string -> ts:float -> unit
(** [name] on end is informational; the stack top closes (an unmatched
    end is ignored, as in [Obs]). *)

val span : t -> tid:int -> name:string -> t0:float -> t1:float -> unit
(** A completed span; [t1] clamps to [>= t0]. *)

val counter : t -> ?tid:int -> name:string -> ts:float -> value:float -> unit -> unit
(** A counter-track point (heap words, RSS, ...). *)

val reanchor : t -> ts:float -> unit
(** Checkpoint-restore: close all open spans at their tracks' current
    clamps and reopen them at [ts] (clamped forward), so downtime is
    attributed to no span and every per-track invariant survives. *)

val obs_sink : ?tid:int -> t -> Obs.sink
val attach : ?tid:int -> t -> Obs.t -> unit
(** Mirror a registry's span activity onto track [tid] (default: the
    timeline's main track). *)

(** {1 Worker buffers} *)

type buf

val buf : unit -> buf
val buf_add : buf -> name:string -> t0:float -> t1:float -> unit
(** Call from the worker: the current domain's id is captured as the
    span's track. *)

val absorb : t -> buf -> unit
(** Coordinator-side: replay a worker buffer into the timeline. *)

(** {1 Inspection and export} *)

val events : t -> int
val dropped : t -> int
val tracks_count : t -> int

val to_json : t -> string
(** [{"traceEvents": [...]}] with timestamps in microseconds relative
    to the earliest event. *)

val write_file : t -> string -> unit
