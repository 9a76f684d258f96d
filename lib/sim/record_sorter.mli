(** Bounded reorder buffer emitting trace records in call-time order.

    Session events can emit a burst of records whose timestamps extend
    a little past the engine clock, so arrival order is only
    approximately sorted. The sorter holds a sliding window and releases
    a record once the newest timestamp seen is [horizon] beyond it —
    giving globally sorted output with memory proportional to the
    window, not the trace. *)

type t

val create : ?obs:Nt_obs.Obs.t -> ?horizon:float -> (Nt_trace.Record.t -> unit) -> t
(** [horizon] defaults to 600 s; it must exceed the longest burst any
    single event emits. [obs] hosts [sorter.pushed], [sorter.released]
    and the [sorter.window_occupancy] peak gauge; defaults to a private
    always-enabled registry. *)

val push : t -> Nt_trace.Record.t -> unit
val flush : t -> unit
(** Release everything; call once at end of simulation. *)

val released : t -> int
