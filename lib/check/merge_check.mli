(** Merge-law and footprint coverage: interfaces exposing
    [merge : t -> t -> t] must have a merge-law property registration in
    the test suite, must also expose state-footprint accounting
    ([footprint] over [t]), and must have that footprint registered
    under the footprint property. *)

val check :
  Finding.sink ->
  in_scope:(string -> bool) ->
  test_units:string list ->
  Loader.unit_info list ->
  string list * string list * int
(** [check sink ~in_scope ~test_units units] emits a
    [merge-law-missing] finding per merge requirement with no
    [prop_merge_laws] registration and a [footprint-missing] finding per
    merge-bearing interface that either lacks a [footprint] value over
    [t] or has no [prop_footprint] registration naming it, then returns
    [(required, covered, test_units_found)] for the engine's stats:
    dotted names of modules that must be covered, dotted names the test
    registrations actually mention, and how many test units were
    scanned (0 means the coverage side never ran — the engine turns
    that into a config-drift finding). *)
