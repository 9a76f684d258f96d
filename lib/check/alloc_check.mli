(** Hot-path allocation rules (alloc-hot-string / format / list /
    closure and alloc-poly-compare) over the bindings in the alloc-hot
    and merge-hot sets.  Error paths under raise are exempt; the counted
    escape hatch is [@@nt.alloc_ok "reason"]. *)

val check :
  Finding.sink ->
  hot:(string, unit) Hashtbl.t ->
  cmp_hot:(string, unit) Hashtbl.t ->
  Callgraph.node list ->
  unit
(** Scan each function node whose id is in [hot] (every rule) or
    [cmp_hot] (poly-compare only). *)
