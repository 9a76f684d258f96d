(* Accumulator-boundedness rules.  An accumulator module fed from the
   per-record path (bound-hot bindings: observe / observe_shard / add
   reachable code in the analysis, lint and mon trees) must not grow
   without a declared discipline: every growth site needs either
   eviction evidence in the same module or a counted annotation
   ([@@nt.bounded "cap"] when a cap/eviction keeps it finite,
   [@@nt.unbounded "reason"] when unbounded growth is the documented
   contract, e.g. an append-only journal replayed by merge).

   Evidence is deliberately coarse — class-granular for hash tables
   (any Hashtbl.remove/reset/clear/filter_inplace in the module pairs
   every stdlib-Hashtbl growth site; same per functor instance) and
   label-granular for container fields (any non-growing assignment to
   [t.f] pairs every [t.f <- x :: t.f]).  Coarse pairing trades
   precision for zero false negatives on the "no eviction anywhere"
   case, which is the bug class this family exists to catch. *)

let evict_fns = [ "remove"; "reset"; "clear"; "filter_inplace" ]
let grow_fns = [ "add"; "replace" ]
let append_fns = [ "add"; "union"; "append"; "@" ]

let class_of_path p =
  match Syntax.norm_path p with
  | n -> (
      match String.rindex_opt n '.' with
      | Some i -> Some (String.sub n 0 i, String.sub n (i + 1) (String.length n - i - 1))
      | None -> None)

(* Names of local [module T = Hashtbl.Make (...)] instances: calls
   through them are hash-table traffic just like stdlib Hashtbl. *)
let functor_instances (str : Typedtree.structure) =
  let rec head (me : Typedtree.module_expr) =
    match me.mod_desc with
    | Tmod_apply (f, _, _) -> head f
    | Tmod_constraint (me, _, _, _) -> head me
    | Tmod_ident (p, _) -> Some (Syntax.norm_name (Path.name p))
    | _ -> None
  in
  List.filter_map
    (fun (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Tstr_module mb -> (
          match (mb.mb_id, mb.mb_expr.mod_desc) with
          | Some id, Tmod_apply _ when head mb.mb_expr = Some "Hashtbl.Make" ->
              Some (Ident.name id)
          | _ -> None)
      | _ -> None)
    str.str_items

let table_class instances cls = cls = "Hashtbl" || List.mem cls instances

(* Does [e] mention field [lbl] (or dereference ref ident [lbl] when
   [is_ref])?  Growth is self-appending: the old value feeds the new. *)
let mentions ~is_ref ~lbl (e : Typedtree.expression) =
  let found = ref false in
  let expr sub (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_field (_, _, ld) when (not is_ref) && ld.Types.lbl_name = lbl -> found := true
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, [ (_, Some arg) ])
      when is_ref && Syntax.norm_path p = "!" -> (
        match arg.Typedtree.exp_desc with
        | Texp_ident (Path.Pident id, _, _) when Ident.name id = lbl -> found := true
        | _ -> ())
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it e;
  !found

(* Is the top of [rhs] an appending form: a cons cell, list append, or
   a Set/Map-style [X.add] / [X.union] returning the grown value? *)
let rec appending (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_construct (_, cd, _) when cd.Types.cstr_name = "::" -> true
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) -> (
      let n = Syntax.norm_path p in
      n = "@"
      || match class_of_path p with Some (_, fn) -> List.mem fn append_fns | None -> false)
  | Texp_ifthenelse (_, t, Some f) -> appending t || appending f
  | Texp_ifthenelse (_, t, None) -> appending t
  | Texp_sequence (_, e) | Texp_let (_, _, e) -> appending e
  | Texp_match (_, cases, _) ->
      List.exists (fun (c : _ Typedtree.case) -> appending c.Typedtree.c_rhs) cases
  | _ -> false

(* Module-wide evidence scan: which hash-table classes see eviction
   calls, and which mutable labels / refs see a non-growing (resetting)
   assignment anywhere in the module. *)
type evidence = { evict_classes : string list ref; reset_labels : string list ref }

let scan_evidence instances (str : Typedtree.structure) =
  let ev = { evict_classes = ref []; reset_labels = ref [] } in
  let note r x = if not (List.mem x !r) then r := x :: !r in
  let expr sub (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
        (match class_of_path p with
        | Some (cls, fn) when table_class instances cls && List.mem fn evict_fns ->
            note ev.evict_classes cls
        | _ -> ());
        match (Syntax.norm_path p, args) with
        | ":=", [ (_, Some { Typedtree.exp_desc = Texp_ident (Path.Pident id, _, _); _ });
                  (_, Some rhs) ]
          when not (appending rhs && mentions ~is_ref:true ~lbl:(Ident.name id) rhs) ->
            note ev.reset_labels (Ident.name id)
        | _ -> ())
    | Texp_setfield (_, _, ld, rhs) ->
        let lbl = ld.Types.lbl_name in
        if not (appending rhs && mentions ~is_ref:false ~lbl rhs) then
          note ev.reset_labels lbl
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.structure it str;
  ev

let scan_binding (sink : Finding.sink) ~allows ~instances ~(ev : evidence) ~fn_name
    (root : Typedtree.expression) =
  let report rule loc detail =
    if Syntax.allowed allows rule then sink.Finding.allow rule else sink.Finding.emit rule loc detail
  in
  let expr sub (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
        (match class_of_path p with
        | Some (cls, fn)
          when table_class instances cls && List.mem fn grow_fns
               && not (List.mem cls !(ev.evict_classes)) ->
            report Rule.bound_table e.exp_loc
              (Printf.sprintf
                 "%s.%s in hot %s with no %s eviction in this module (cap it or declare \
                  [@@nt.bounded]/[@@nt.unbounded])"
                 cls fn fn_name cls)
        | _ -> ());
        match (Syntax.norm_path p, args) with
        | ":=", [ (_, Some { Typedtree.exp_desc = Texp_ident (Path.Pident id, _, _); _ });
                  (_, Some rhs) ]
          when appending rhs
               && mentions ~is_ref:true ~lbl:(Ident.name id) rhs
               && not (List.mem (Ident.name id) !(ev.reset_labels)) ->
            report Rule.bound_list e.exp_loc
              (Printf.sprintf
                 "%s grows onto itself in hot %s with no reset in this module (cap it or \
                  declare [@@nt.bounded]/[@@nt.unbounded])"
                 (Ident.name id) fn_name)
        | _ -> ())
    | Texp_setfield (_, _, ld, rhs) ->
        let lbl = ld.Types.lbl_name in
        if
          appending rhs
          && mentions ~is_ref:false ~lbl rhs
          && not (List.mem lbl !(ev.reset_labels))
        then
          report Rule.bound_list e.exp_loc
            (Printf.sprintf
               "field %s grows onto itself in hot %s with no reset in this module (cap it \
                or declare [@@nt.bounded]/[@@nt.unbounded])"
               lbl fn_name)
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it root

let check (sink : Finding.sink) ~hot (u : Loader.unit_info) (nodes : Callgraph.node list) =
  match u.Loader.payload with
  | Loader.Intf _ -> ()
  | Loader.Impl str ->
      let instances = functor_instances str in
      let ev = scan_evidence instances str in
      List.iter
        (fun (n : Callgraph.node) ->
          if Hashtbl.mem hot n.id then
            scan_binding sink ~allows:n.allows ~instances ~ev ~fn_name:n.path n.expr)
        nodes
