(** One rule violation anchored to a source location. *)

type t = { rule : Rule.t; file : string; line : int; col : int; detail : string }

val v : Rule.t -> file:string -> line:int -> col:int -> string -> t

val of_loc : Rule.t -> Location.t -> string -> t
(** Anchor at the start of a typedtree location; [pos_fname] is the
    build-relative source path the compiler recorded. *)

val compare : t -> t -> int
(** Orders by (file, line, col, rule id, detail) so reports are
    deterministic regardless of cmt traversal order. *)

val to_string : t -> string
val to_json : t -> Nt_obs.Obs.Json.v
val list_to_json : t list -> string

val list_to_sarif : t list -> string
(** SARIF 2.1.0 log: one run, the whole rule registry as the driver's
    rules array, one result per finding (Info/Warn/Error mapped to
    note/warning/error, positions clamped to SARIF's 1-based minima). *)

type sink = { emit : Rule.t -> Location.t -> string -> unit; allow : Rule.t -> unit }
(** How rule passes report: [emit] records a finding (subject to the
    engine's enable set and per-rule cap), [allow] counts a violation
    suppressed by an allowlist attribute. *)
