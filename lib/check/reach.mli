(** Import-graph reachability, the domain-safety scope approximation.

    A module is "reachable" when the transitive closure of compilation
    unit imports, starting from the configured root units (the parallel
    driver and its pass table), includes it.  This over-approximates
    what a worker-domain task closure can touch: imports include things
    only used at setup time, but nothing a task uses can be missing,
    which is the safe direction for a mutable-state check.  The walk is
    {!Callgraph.closure} over the import graph. *)

type t

val compute : roots:string list -> Loader.unit_info list -> t
(** Roots are matched with {!Syntax.unit_matches}; roots matching no
    loaded unit are reported in [missing_roots]. *)

val mem : t -> string -> bool
val to_list : t -> string list

val missing_roots : t -> string list
