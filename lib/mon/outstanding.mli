(** The "currently outstanding calls" snapshot — the one line of the
    [nfs3-mon.d] report that is instantaneous rather than aggregated.

    The monitor sees completed records (call + reply when captured), so
    a call is outstanding at feed time [T] when its reply is later than
    [T], or was never captured and its timeout has not yet expired.
    State is a bounded binary min-heap on expiry time; when full, the
    call expiring soonest is dropped and counted, so a reply storm can
    never grow the monitor. *)

type t

val create : ?cap:int -> ?timeout:float -> unit -> t
(** [cap] (default 4096) bounds tracked in-flight calls; [timeout]
    (default {!Nt_trace.Capture.lost_reply_timeout}) is how long a
    reply-lost call stays "outstanding" before it is counted as lost. *)

val note : t -> Nt_trace.Record.t -> unit
val advance : t -> now:float -> unit
(** Retire every call whose reply (or timeout) is at or before [now];
    timed-out reply-lost calls increment {!lost}. *)

val outstanding : t -> int
val by_proc : t -> (string * int) list
(** Outstanding count per procedure, ops-descending then name. O(live)
    per call. *)

val lost : t -> int
val dropped : t -> int
(** Calls evicted because the tracker was full. *)

val to_json : t -> Nt_obs.Obs.Json.v
(** Deterministic checkpoint encoding: the cumulative [lost] and
    [dropped] counters and the in-flight [calls] as
    [[expiry, proc, reply_lost]], sorted. *)

val of_json : ?cap:int -> ?timeout:float -> Nt_obs.Obs.Json.v -> (t, string) result
(** Rebuild a tracker from {!to_json} output, enforcing the given
    bounds (entries beyond [cap] are dropped and counted, as live).
    [Error] on a missing, duplicated or unknown key, a bad integer or a
    malformed call. *)

val footprint : t -> Nt_obs.Footprint.t
(** State-footprint accounting (see {!Nt_obs.Footprint}). *)
