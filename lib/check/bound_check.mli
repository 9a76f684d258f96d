(** Accumulator-boundedness rules (bound-table, bound-list) over the
    bindings in the bound-hot set.  Growth sites must be paired with
    same-module eviction/reset evidence or carry a counted
    [@@nt.bounded "cap"] / [@@nt.unbounded "reason"] annotation. *)

val check :
  Finding.sink -> hot:(string, unit) Hashtbl.t -> Loader.unit_info -> Callgraph.node list -> unit
(** [check sink ~hot u nodes] scans the [nodes] of unit [u] whose ids
    are in [hot], against eviction evidence gathered from all of [u]. *)
