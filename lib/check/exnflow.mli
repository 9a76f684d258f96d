(** Interprocedural may-raise analysis.

    The pure lattice/fixpoint core is exposed separately from the
    typedtree lowering so the property tests can drive it on random
    call graphs: [solve] must terminate and be monotone (adding an
    item to any summary never shrinks any node's solution). *)

(** {1 Lattice} *)

module Names : Set.S with type elt = string

type exns =
  | Top  (** may raise something we cannot name *)
  | Names of Names.t  (** raises at most these constructors *)

val bot : exns
val is_bot : exns -> bool
val union : exns -> exns -> exns
val subtract : exns -> string list -> exns
val leq : exns -> exns -> bool
val equal_exns : exns -> exns -> bool
val mem_exn : string -> exns -> bool

val to_strings : exns -> string list
(** [["*"]] for [Top], sorted constructor names otherwise. *)

(** {1 Summaries and fixpoint} *)

type catch =
  | Catch_all  (** wildcard handler: clears the guarded set *)
  | Catch_names of string list  (** subtracts exactly these *)

type 'a item =
  | Prim of string * 'a  (** primitive raise of a named constructor *)
  | Prim_top of 'a  (** primitive raise of an unnameable exception *)
  | Call of string  (** inherits the named node's solution *)
  | Guard of catch * 'a item list  (** handler-subtracted region *)

val eval : (string -> exns) -> 'a item list -> exns
(** One transfer-function application under a solution lookup. *)

val solve : (string * 'a item list) list -> (string, exns) Hashtbl.t
(** Least fixpoint of [eval] over all summaries; nodes absent from the
    list evaluate to [bot] when called. *)

(** {1 Typedtree lowering} *)

type origin = { o_desc : string; o_file : string; o_line : int }
type graph

val build : Callgraph.t -> graph
(** Lower every {!Callgraph} node's body to a summary: raise
    primitives, the raising-stdlib seed table, partial matches, and
    try/match-exception guards, with [Call] items for the callees the
    graph resolves. *)

val set_summary : graph -> string -> origin item list -> unit

val summaries : graph -> (string * origin item list) list
(** Every node's summary, in {!Callgraph.nodes} order. *)

val explain :
  graph -> (string, exns) Hashtbl.t -> id:string -> exn:string -> string list option
(** One witness chain from node [id] to a primitive source of [exn]
    (["*"] to chase a [Top]): callee display names ending with the
    primitive's description and location. *)
