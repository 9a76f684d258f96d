(** The exn-escape rule over the Exnflow fixpoint.

    [check sink ~graph ~roots ~config_finding] resolves the root
    patterns (exact display names or ["Prefix.*"] globs over exported
    bindings), closes them over [graph], lowers every node to its
    may-raise summary, empties the summaries of [@@nt.raise_ok]-annotated
    bindings (counting each reachable one through the suppression
    census), solves the fixpoint, emits one finding per root whose
    residual may-raise set is non-empty, and returns the per-function
    report: [(display, file, line, may-raise)] rows for every binding
    reachable from a root, sorted — [["*"]] marks [Top]. *)

val check :
  Finding.sink ->
  graph:Callgraph.t ->
  roots:string list ->
  config_finding:(string -> unit) ->
  (string * string * int * string list) list
