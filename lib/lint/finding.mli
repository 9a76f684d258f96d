(** One lint finding: which rule fired, where, and why.

    Findings carry the zero-based record index so a reader can seek the
    offending line in the trace file, the record's call time (NaN for
    stats-level findings that have no record), and a short free-form
    detail string. Two renderings are provided: a one-line human form
    and a JSON object for machine consumers. *)

type t = {
  rule : Rule.t;
  index : int;  (** zero-based record index; [-1] for stats-level findings *)
  time : float;  (** call time of the record; [nan] for stats-level findings *)
  detail : string;
}

val v : Rule.t -> index:int -> time:float -> string -> t

val to_string : t -> string
(** ["error offset-beyond-size #42 @1003622400.123: read 8192@65536 past size 4096"] *)

val to_json : t -> Nt_obs.Obs.Json.v
(** One JSON object; the time rounded to the microsecond, [null] when
    NaN. *)

val list_to_json : t list -> string
(** JSON array of {!to_json} objects, on one line. *)
