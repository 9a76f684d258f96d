(* The one call graph: every value binding (top level and nested
   [struct]s) as a node keyed by ident stamp, and each binding's
   resolved callees as its edges.

   Resolution is by identity, not by name: a bare [Pident] resolves
   only through its stamp, so a parameter or local named like a
   top-level function is not an edge to it.  A dotted path resolves
   through the longest compiled-unit prefix (Nt_mon.Feed.pull and the
   raw Nt_mon__Feed.pull spelling alike), after expanding one level of
   local module alias (the [module Fh = Nt_nfs.Fh] idiom every lib file
   uses), and otherwise as a nested path of the current unit
   (Decoder.feed from Nt_tbin's top level).  References through functor
   instances (Fh_tbl.add) resolve to no node and add no edge: the
   stdlib leaves they wrap are modeled by the rules themselves.

   Local [let]-bound closures are not nodes; their bodies belong to
   the enclosing binding. *)

type node = {
  id : string;
  display : string;
  unit_name : string;
  dotted : string;
  path : string;
  name : string;
  file : string;
  line : int;
  allows : string list;
  expr : Typedtree.expression;
}

type t = {
  nodes : (string, node) Hashtbl.t;  (* id -> node *)
  mutable order : node list;  (* collection order, reversed while building *)
  by_unit : (string, node list) Hashtbl.t;  (* unit -> its nodes, reversed while building *)
  by_unit_path : (string, string) Hashtbl.t;  (* unit ^ ":" ^ path -> id, last wins *)
  by_stamp : (string, string) Hashtbl.t;  (* unit ^ ":" ^ unique_name -> id *)
  unit_by_name : (string, string) Hashtbl.t;  (* unit name / dotted -> unit *)
  aliases : (string, (string, string) Hashtbl.t) Hashtbl.t;  (* unit -> module aliases *)
  edges : (string, string list) Hashtbl.t;  (* id -> callee ids, filled by [callees] *)
}

(* Local [module X = Path] aliases, one level. *)
let module_aliases (str : Typedtree.structure) =
  let tbl = Hashtbl.create 16 in
  let rec of_expr (me : Typedtree.module_expr) =
    match me.mod_desc with
    | Tmod_ident (p, _) -> Some (Path.name p)
    | Tmod_constraint (me, _, _, _) -> of_expr me
    | _ -> None
  in
  List.iter
    (fun (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Tstr_module mb -> (
          match (mb.mb_id, of_expr mb.mb_expr) with
          | Some id, Some target -> Hashtbl.replace tbl (Ident.name id) target
          | _ -> ())
      | _ -> ())
    str.str_items;
  tbl

let expand_alias aliases dotted =
  match String.index_opt dotted '.' with
  | None -> ( match Hashtbl.find_opt aliases dotted with Some t -> t | None -> dotted)
  | Some i -> (
      let head = String.sub dotted 0 i in
      let rest = String.sub dotted i (String.length dotted - i) in
      match Hashtbl.find_opt aliases head with Some t -> t ^ rest | None -> dotted)

(* --- nodes --- *)

let unit_nodes g unit_name = Option.value (Hashtbl.find_opt g.by_unit unit_name) ~default:[]

let binding_ident (vb : Typedtree.value_binding) =
  match vb.vb_pat.pat_desc with
  | Tpat_var (id, _) -> Some id
  | Tpat_alias ({ pat_desc = Tpat_any; _ }, id, _) -> Some id
  | _ -> None

let add_node g ~unit_name ~dotted ~prefix (vb : Typedtree.value_binding) =
  match binding_ident vb with
  | None -> ()
  | Some id ->
      let name = Ident.name id in
      let path = if prefix = "" then name else prefix ^ "." ^ name in
      let loc = vb.vb_pat.pat_loc in
      let node =
        {
          id = unit_name ^ ":" ^ prefix ^ "." ^ Ident.unique_name id;
          display = dotted ^ "." ^ path;
          unit_name;
          dotted;
          path;
          name;
          file = loc.loc_start.pos_fname;
          line = loc.loc_start.pos_lnum;
          allows = Syntax.allows vb.vb_attributes;
          expr = vb.vb_expr;
        }
      in
      Hashtbl.replace g.nodes node.id node;
      g.order <- node :: g.order;
      Hashtbl.replace g.by_unit unit_name (node :: unit_nodes g unit_name);
      Hashtbl.replace g.by_unit_path (unit_name ^ ":" ^ path) node.id;
      Hashtbl.replace g.by_stamp (unit_name ^ ":" ^ Ident.unique_name id) node.id

let rec collect_structure g ~unit_name ~dotted ~prefix (str : Typedtree.structure) =
  List.iter
    (fun (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Tstr_value (_, vbs) -> List.iter (add_node g ~unit_name ~dotted ~prefix) vbs
      | Tstr_module mb -> collect_module g ~unit_name ~dotted ~prefix mb
      | Tstr_recmodule mbs -> List.iter (collect_module g ~unit_name ~dotted ~prefix) mbs
      | Tstr_include incl -> collect_module_expr g ~unit_name ~dotted ~prefix incl.incl_mod
      | _ -> ())
    str.str_items

and collect_module g ~unit_name ~dotted ~prefix (mb : Typedtree.module_binding) =
  match mb.mb_id with
  | None -> ()
  | Some id ->
      let sub = if prefix = "" then Ident.name id else prefix ^ "." ^ Ident.name id in
      collect_module_expr g ~unit_name ~dotted ~prefix:sub mb.mb_expr

and collect_module_expr g ~unit_name ~dotted ~prefix (me : Typedtree.module_expr) =
  match me.mod_desc with
  | Tmod_structure str -> collect_structure g ~unit_name ~dotted ~prefix str
  | Tmod_constraint (me, _, _, _) -> collect_module_expr g ~unit_name ~dotted ~prefix me
  | _ -> ()

(* --- resolution --- *)

let resolve g ~unit_name (p : Path.t) =
  match p with
  | Path.Pident id -> Hashtbl.find_opt g.by_stamp (unit_name ^ ":" ^ Ident.unique_name id)
  | Path.Pdot _ -> (
      let name =
        match Hashtbl.find_opt g.aliases unit_name with
        | Some aliases -> expand_alias aliases (Path.name p)
        | None -> Path.name p
      in
      let rec try_prefix s =
        match Hashtbl.find_opt g.unit_by_name s with
        | Some u -> Some (u, String.length s)
        | None -> (
            match String.rindex_opt s '.' with
            | Some i -> try_prefix (String.sub s 0 i)
            | None -> None)
      in
      let cross =
        match String.rindex_opt name '.' with
        | None -> None
        | Some _ -> (
            match try_prefix name with
            | Some (u, plen) when plen < String.length name ->
                let rest = String.sub name (plen + 1) (String.length name - plen - 1) in
                Hashtbl.find_opt g.by_unit_path (u ^ ":" ^ rest)
            | _ -> None)
      in
      match cross with
      | Some id -> Some id
      | None -> Hashtbl.find_opt g.by_unit_path (unit_name ^ ":" ^ name))
  | _ -> None

(* --- edges --- *)

let callees_of g (n : node) =
  let acc = ref [] in
  let expr sub (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_ident (p, _, _) -> (
        match resolve g ~unit_name:n.unit_name p with
        | Some id when not (List.mem id !acc) -> acc := id :: !acc
        | _ -> ())
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it n.expr;
  List.rev !acc

let build (units : Loader.unit_info list) =
  let g =
    {
      nodes = Hashtbl.create 1024;
      order = [];
      by_unit = Hashtbl.create 64;
      by_unit_path = Hashtbl.create 1024;
      by_stamp = Hashtbl.create 1024;
      unit_by_name = Hashtbl.create 64;
      aliases = Hashtbl.create 64;
      edges = Hashtbl.create 1024;
    }
  in
  List.iter
    (fun (u : Loader.unit_info) ->
      match u.payload with
      | Loader.Intf _ -> ()
      | Loader.Impl str ->
          Hashtbl.replace g.unit_by_name u.name u.name;
          Hashtbl.replace g.unit_by_name u.dotted u.name;
          Hashtbl.replace g.aliases u.name (module_aliases str);
          collect_structure g ~unit_name:u.name ~dotted:u.dotted ~prefix:"" str)
    units;
  g.order <- List.rev g.order;
  Hashtbl.filter_map_inplace (fun _ l -> Some (List.rev l)) g.by_unit;
  g

let nodes g = g.order
let node g id = Hashtbl.find_opt g.nodes id
(* Edges are resolved on first demand: the closures only walk the part
   of the graph their seeds reach. *)
let callees g id =
  match Hashtbl.find_opt g.edges id with
  | Some l -> l
  | None ->
      let l = match Hashtbl.find_opt g.nodes id with Some n -> callees_of g n | None -> [] in
      Hashtbl.replace g.edges id l;
      l

let exported g (n : node) = Hashtbl.find_opt g.by_unit_path (n.unit_name ^ ":" ^ n.path) = Some n.id

let closure ~succ ~seeds =
  let seen = Hashtbl.create 256 in
  let rec visit id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.add seen id ();
      List.iter visit (succ id)
    end
  in
  List.iter visit seeds;
  seen
