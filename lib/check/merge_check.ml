(* Merge-law coverage: every interface exposing an accumulator merge
   (merge : t -> t -> t) must have a merge-law property registered in
   the test suite, so the byte-identical --jobs N guarantee never rests
   on an untested merge.

   Requirement side: scan each in-scope .cmti for a value named [merge]
   whose type is t -> t -> t over one local constructor.

   Coverage side: scan the configured test units' .cmt for applications
   of the registration function [prop_merge_laws] and collect
   every [<Module>.merge] identifier mentioned in the arguments.  Local
   module aliases (module Summary = Nt_analysis.Summary) are expanded
   one level, which is exactly the idiom the test files use. *)

(* Footprint side: the same interfaces must also expose state-footprint
   accounting (a [footprint] value consuming [t]) and have it registered
   under the footprint property [prop_footprint]; otherwise the
   nt_state_cards/nt_state_words gauges silently omit the component. *)

(* The test-suite registration functions each side looks for. *)
let merge_prop_fn = "prop_merge_laws"
let footprint_prop_fn = "prop_footprint"

type requirement = { req_dotted : string; req_loc : Location.t; req_footprint : bool }

let same_head a b c =
  match (Types.get_desc a, Types.get_desc b, Types.get_desc c) with
  | Types.Tconstr (pa, _, _), Types.Tconstr (pb, _, _), Types.Tconstr (pc, _, _) ->
      let na = Path.name pa in
      na = Path.name pb && na = Path.name pc && Path.last pa = "t"
  | _ -> false

(* A [footprint] declaration counts as long as it consumes the local [t];
   the result shape (record, pair, abstract) is the module's business. *)
let has_footprint (sg : Typedtree.signature) =
  List.exists
    (fun (item : Typedtree.signature_item) ->
      match item.sig_desc with
      | Tsig_value vd when Ident.name vd.val_id = "footprint" -> (
          match Types.get_desc vd.val_val.Types.val_type with
          | Types.Tarrow (_, a, _, _) -> (
              match Types.get_desc a with
              | Types.Tconstr (pa, _, _) -> Path.last pa = "t"
              | _ -> false)
          | _ -> false)
      | _ -> false)
    sg.sig_items

let merge_requirement (u : Loader.unit_info) =
  match u.payload with
  | Loader.Impl _ -> None
  | Loader.Intf sg ->
      List.find_map
        (fun (item : Typedtree.signature_item) ->
          match item.sig_desc with
          | Tsig_value vd when Ident.name vd.val_id = "merge" -> (
              match Types.get_desc vd.val_val.Types.val_type with
              | Types.Tarrow (_, a, rest, _) -> (
                  match Types.get_desc rest with
                  | Types.Tarrow (_, b, c, _) when same_head a b c ->
                      Some
                        {
                          req_dotted = u.dotted;
                          req_loc = vd.val_loc;
                          req_footprint = has_footprint sg;
                        }
                  | _ -> None)
              | _ -> None)
          | _ -> None)
        sg.sig_items

(* --- coverage extraction from a test unit --- *)

let idents_in ~last (e : Typedtree.expression) =
  let acc = ref [] in
  let expr sub (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_ident (p, _, _) when Path.last p = last -> (
        match p with
        | Path.Pdot (prefix, _) -> acc := Path.name prefix :: !acc
        | _ -> ())
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it e;
  !acc

let registrations ~prop_fn ~last (str : Typedtree.structure) =
  let aliases = Callgraph.module_aliases str in
  let acc = ref [] in
  let expr sub (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args)
      when Syntax.path_last p = prop_fn ->
        List.iter
          (fun (_, arg) ->
            match arg with
            | Some a ->
                List.iter
                  (fun prefix -> acc := Callgraph.expand_alias aliases prefix :: !acc)
                  (idents_in ~last a)
            | None -> ())
          args
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.structure it str;
  !acc

let check (sink : Finding.sink) ~in_scope ~test_units (units : Loader.unit_info list) =
  let requirements =
    List.filter_map
      (fun u -> if in_scope u.Loader.dotted then merge_requirement u else None)
      units
  in
  let test_impls =
    List.filter
      (fun (u : Loader.unit_info) ->
        Loader.is_impl u
        && List.exists (fun t -> Syntax.unit_matches ~unit:u.name t) test_units)
      units
  in
  let extract ~prop_fn ~last =
    List.concat_map
      (fun (u : Loader.unit_info) ->
        match u.payload with
        | Loader.Impl str -> registrations ~prop_fn ~last str
        | Loader.Intf _ -> [])
      test_impls
  in
  let covered = extract ~prop_fn:merge_prop_fn ~last:"merge" in
  let fp_covered = extract ~prop_fn:footprint_prop_fn ~last:"footprint" in
  List.iter
    (fun req ->
      if not (List.mem req.req_dotted covered) then
        sink.emit Rule.merge_law_missing req.req_loc
          (Printf.sprintf
             "%s.merge has no %s registration in the test suite (add associativity and \
              neutral-element properties)"
             req.req_dotted merge_prop_fn);
      if not req.req_footprint then
        sink.emit Rule.footprint_missing req.req_loc
          (Printf.sprintf
             "%s exposes merge but no footprint value over t; the state-accounting gauges \
              cannot see this accumulator"
             req.req_dotted)
      else if not (List.mem req.req_dotted fp_covered) then
        sink.emit Rule.footprint_missing req.req_loc
          (Printf.sprintf
             "%s.footprint has no %s registration in the test suite (assert words >= cards \
              and words > 0 on built states)"
             req.req_dotted footprint_prop_fn))
    requirements;
  (List.map (fun r -> r.req_dotted) requirements, covered, List.length test_impls)
