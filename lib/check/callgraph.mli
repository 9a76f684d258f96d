(** The one function-level call graph ntcheck builds per run.

    Nodes are every value binding of every implementation unit, at the
    unit's top level and inside nested [struct]s, keyed by ident stamp
    so a shadowed binding keeps its own node.  Edges are each binding's
    resolved callees: every identifier in its body that names another
    node, directly (by stamp), through another unit's surface name
    (wrapped-dotted or raw), through a one-level local module alias, or
    as a nested path of the current unit.  The hot sets, the exn-escape
    census and the may-raise summaries all read this one graph. *)

type node = {
  id : string;
  display : string;  (** dotted unit ^ "." ^ path, e.g. Nt_tbin.Tbin.Decoder.feed *)
  unit_name : string;  (** compilation unit, e.g. Nt_tbin__Tbin *)
  dotted : string;  (** the unit's surface name, e.g. Nt_tbin.Tbin *)
  path : string;  (** binding path inside the unit, e.g. Decoder.feed *)
  name : string;  (** the binding's own name, e.g. feed *)
  file : string;
  line : int;
  allows : string list;  (** allowlist rule ids from the binding's attributes *)
  expr : Typedtree.expression;  (** the bound expression *)
}

type t

val build : Loader.unit_info list -> t

val nodes : t -> node list
(** Every node, in collection order (unit, then source order). *)

val node : t -> string -> node option
val unit_nodes : t -> string -> node list
(** The nodes of one compilation unit, in source order. *)

val callees : t -> string -> string list
(** A node's resolved callees, in first-mention order.  Resolved on
    first demand and cached, so a closure pays only for what it
    reaches. *)

val resolve : t -> unit_name:string -> Path.t -> string option
(** The node an identifier path names from inside [unit_name], if any. *)

val exported : t -> node -> bool
(** Whether this node is the last binding registered for its (unit,
    path) — i.e. what the module actually exports under that name. *)

val closure : succ:(string -> string list) -> seeds:string list -> (string, unit) Hashtbl.t
(** Everything reachable from [seeds] through [succ], seeds included.
    Over {!callees} it gives the hot sets and the exn census; {!Reach}
    runs it over the unit import graph. *)

val module_aliases : Typedtree.structure -> (string, string) Hashtbl.t
(** Top-level [module X = Path] aliases of a structure, one level. *)

val expand_alias : (string, string) Hashtbl.t -> string -> string
(** Rewrite a dotted name's head component through the alias table. *)
