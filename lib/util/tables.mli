(** Plain-text table rendering for the benchmark harness.

    Every reproduced table/figure prints through this module so that
    bench output lines up and is diffable across runs. *)

val render : ?title:string -> header:string list -> string list list -> string
(** [render ~header rows] returns an aligned ASCII table. All rows must
    have the same arity as [header]. *)

val fmt_float : ?decimals:int -> float -> string
(** Fixed-point with [decimals] (default 2). *)

val fmt_pct : ?decimals:int -> float -> string
(** [fmt_pct 12.345] is ["12.3%"] (default 1 decimal). *)

val fmt_bytes : float -> string
(** Human bytes with binary units: ["1.5 MB"], ["119.6 GB"]. *)

val fmt_duration : float -> string
(** Seconds rendered like the paper's lifetime axes: ["0.8 s"],
    ["5 min"], ["1 hour"], ["1 day"]. *)
