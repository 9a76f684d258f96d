(* Codec / format drift.

   Arm coverage: every constructor of the configured wire types
   (Ops.call, Ops.success) must appear in the codec unit both as a
   *pattern* (the encode dispatch matches on the value) and as a
   *construction* (the decode dispatch rebuilds it).  The compiler
   already fails a deleted encode arm under -warn-error; the deleted
   decode arm — a silent `| tag -> salvage` fallthrough — is exactly
   the fork this rule exists to catch.

   Tag registry: every string literal shaped like a version tag
   (name/N, name starting with a letter, charset [A-Za-z0-9_.-], one
   slash) must live in the Nt_formats registry and be *referenced*
   everywhere else.  A literal outside the registry is flagged as
   drift when its name part is registered (duplicate or version fork)
   and as unregistered otherwise; registered tags embedded in larger
   literals are scanned too, so "schema": "nt_obs/2" inside a JSON
   template cannot fork the version silently.  Format *strings*
   (Printf) are not Const_string at the typedtree level and are out of
   scope; no JSON is written through one — every document is a Json.v
   whose tag is a registry reference. *)

let tag_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '.' || c = '-'

let is_letter c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
let is_digit c = c >= '0' && c <= '9'

(* "nttb/1" (optional trailing newline) -> Some ("nttb", "1") *)
let parse_tag s =
  let s =
    if String.length s > 0 && s.[String.length s - 1] = '\n' then
      String.sub s 0 (String.length s - 1)
    else s
  in
  match String.index_opt s '/' with
  | None -> None
  | Some i ->
      if
        i > 0
        && i < String.length s - 1
        && String.index_opt (String.sub s (i + 1) (String.length s - i - 1)) '/' = None
        && is_letter s.[0]
        && (let ok = ref true in
            String.iteri (fun j c -> if j < i && not (tag_char c) then ok := false) s;
            !ok)
        &&
        let ok = ref true in
        String.iteri (fun j c -> if j > i && not (is_digit c) then ok := false) s;
        !ok
      then Some (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
      else None

(* Occurrences of a registered name followed by "/<digits>" embedded in
   a larger literal, with charset boundaries on both sides. *)
let embedded_versions ~name s =
  let nl = String.length name and sl = String.length s in
  let out = ref [] in
  let i = ref 0 in
  while !i + nl + 1 < sl do
    let j = !i in
    if
      String.sub s j nl = name
      && s.[j + nl] = '/'
      && (j = 0 || not (tag_char s.[j - 1]))
      && is_digit s.[j + nl + 1]
    then begin
      let k = ref (j + nl + 1) in
      while !k < sl && is_digit s.[!k] do incr k done;
      if !k = sl || not (tag_char s.[!k]) then
        out := String.sub s (j + nl + 1) (!k - (j + nl + 1)) :: !out;
      i := !k
    end
    else incr i
  done;
  List.rev !out

(* --- typedtree access helpers --- *)

let impl_of units name =
  List.find_map
    (fun (u : Loader.unit_info) ->
      match u.Loader.payload with
      | Loader.Impl str when u.Loader.name = name -> Some (u, str)
      | _ -> None)
    units

(* Top-level [let name = "literal"] bindings of the registry unit. *)
let registry_entries (str : Typedtree.structure) =
  List.concat_map
    (fun (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
          List.filter_map
            (fun (vb : Typedtree.value_binding) ->
              match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
              | Tpat_var (id, _), Texp_constant (Const_string (s, _, _)) ->
                  Some (Ident.name id, s)
              | _ -> None)
            vbs
      | _ -> [])
    str.str_items

(* Constructors of the named variant types, from impl or intf. *)
let constructors_of (u : Loader.unit_info) ~type_names =
  let of_decl (d : Typedtree.type_declaration) =
    if List.mem d.typ_name.txt type_names then
      match d.typ_kind with
      | Ttype_variant cds ->
          List.map
            (fun (cd : Typedtree.constructor_declaration) ->
              (d.typ_name.txt, cd.cd_name.txt))
            cds
      | _ -> []
    else []
  in
  match u.Loader.payload with
  | Loader.Impl str ->
      List.concat_map
        (fun (item : Typedtree.structure_item) ->
          match item.str_desc with
          | Tstr_type (_, ds) -> List.concat_map of_decl ds
          | _ -> [])
        str.str_items
  | Loader.Intf sg ->
      List.concat_map
        (fun (item : Typedtree.signature_item) ->
          match item.sig_desc with
          | Tsig_type (_, ds) -> List.concat_map of_decl ds
          | _ -> [])
        sg.sig_items

(* Constructor names of the target types used in pattern position /
   expression position anywhere in a structure.  Membership is keyed
   on the constructor's result-type name so an unrelated Alpha
   somewhere else cannot mask a missing arm. *)
let constructor_uses (str : Typedtree.structure) ~type_names =
  let pats = Hashtbl.create 64 and exprs = Hashtbl.create 64 in
  let res_type (cd : Types.constructor_description) =
    match Types.get_desc cd.cstr_res with
    | Types.Tconstr (p, _, _) -> Some (Path.last p)
    | _ -> None
  in
  let note tbl cd =
    match res_type cd with
    | Some t when List.mem t type_names -> Hashtbl.replace tbl (t, cd.Types.cstr_name) ()
    | _ -> ()
  in
  let pat (type k) sub (p : k Typedtree.general_pattern) =
    (match p.pat_desc with
    | Typedtree.Tpat_construct (_, cd, _, _) -> note pats cd
    | _ -> ());
    Tast_iterator.default_iterator.pat sub p
  in
  let expr sub (e : Typedtree.expression) =
    (match e.exp_desc with
    | Typedtree.Texp_construct (_, cd, _) -> note exprs cd
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with pat; expr } in
  it.structure it str;
  (pats, exprs)

(* --- the checks --- *)

let unit_loc (u : Loader.unit_info) =
  {
    Location.none with
    loc_start = { Lexing.pos_fname = u.Loader.source; pos_lnum = 1; pos_bol = 0; pos_cnum = 0 };
  }

let check_codecs sink ~codecs ~units ~config_finding =
  List.iter
    (fun (ops_unit, type_names, codec_unit) ->
      let ops =
        List.find_opt (fun (u : Loader.unit_info) -> u.Loader.name = ops_unit) units
      in
      match (ops, impl_of units codec_unit) with
      | None, _ ->
          config_finding
            (Printf.sprintf "codec spec: type unit %s matched no compiled module" ops_unit)
      | _, None ->
          config_finding
            (Printf.sprintf "codec spec: codec unit %s matched no compiled module" codec_unit)
      | Some ops, Some (cu, cstr_tree) ->
          let ctors = constructors_of ops ~type_names in
          if ctors = [] then
            config_finding
              (Printf.sprintf "codec spec: no constructors found for types [%s] in %s"
                 (String.concat "; " type_names)
                 ops_unit)
          else begin
            let pats, exprs = constructor_uses cstr_tree ~type_names in
            List.iter
              (fun (ty, c) ->
                if not (Hashtbl.mem pats (ty, c)) then
                  sink.Finding.emit Rule.codec_arm_missing (unit_loc cu)
                    (Printf.sprintf "%s.%s (%s) has no encode arm: %s never matches it" ops_unit
                       c ty cu.Loader.name);
                if not (Hashtbl.mem exprs (ty, c)) then
                  sink.Finding.emit Rule.codec_arm_missing (unit_loc cu)
                    (Printf.sprintf
                       "%s.%s (%s) has no decode arm: %s never constructs it" ops_unit c ty
                       cu.Loader.name))
              ctors
          end)
    codecs

let check_formats sink ~formats_unit ~units ~config_finding =
  match impl_of units formats_unit with
  | None ->
      config_finding
        (Printf.sprintf "format registry unit %s matched no compiled module" formats_unit)
  | Some (_, reg_tree) ->
      let registry = List.filter_map (fun (_, s) -> parse_tag s) (registry_entries reg_tree) in
      if registry = [] then
        config_finding
          (Printf.sprintf "format registry unit %s defines no version tags" formats_unit);
      let scan_unit (u : Loader.unit_info) (str : Typedtree.structure) =
        (* Walk per top-level binding so [@@nt.allow] on the binding can
           accept a deliberate literal. *)
        let scan_expr ~allows (e0 : Typedtree.expression) =
          let report rule loc detail =
            if Syntax.allowed allows rule then sink.Finding.allow rule
            else sink.Finding.emit rule loc detail
          in
          let expr sub (e : Typedtree.expression) =
            (match e.exp_desc with
            | Texp_constant (Const_string (s, _, _)) -> (
                match parse_tag s with
                | Some (n, v) -> (
                    match List.assoc_opt n registry with
                    | Some rv when rv = v ->
                        report Rule.format_literal_drift e.exp_loc
                          (Printf.sprintf
                             "\"%s/%s\" duplicates the registered tag; reference the \
                              Nt_formats registry instead"
                             n v)
                    | Some rv ->
                        report Rule.format_literal_drift e.exp_loc
                          (Printf.sprintf
                             "\"%s/%s\" forks the registered version %s/%s" n v n rv)
                    | None ->
                        report Rule.format_unregistered e.exp_loc
                          (Printf.sprintf
                             "\"%s/%s\" is not in the Nt_formats registry" n v))
                | None ->
                    List.iter
                      (fun (rn, rv) ->
                        List.iter
                          (fun v ->
                            if v <> rv then
                              report Rule.format_literal_drift e.exp_loc
                                (Printf.sprintf
                                   "literal embeds %s/%s but the registry says %s/%s" rn v
                                   rn rv))
                          (embedded_versions ~name:rn s))
                      registry)
            | _ -> ());
            Tast_iterator.default_iterator.expr sub e
          in
          let it = { Tast_iterator.default_iterator with expr } in
          it.expr it e0
        in
        let rec scan_structure (str : Typedtree.structure) =
          List.iter
            (fun (item : Typedtree.structure_item) ->
              match item.str_desc with
              | Tstr_value (_, vbs) ->
                  List.iter
                    (fun (vb : Typedtree.value_binding) ->
                      scan_expr ~allows:(Syntax.allows vb.vb_attributes) vb.vb_expr)
                    vbs
              | Tstr_module mb -> scan_module_expr mb.mb_expr
              | Tstr_recmodule mbs ->
                  List.iter
                    (fun (mb : Typedtree.module_binding) -> scan_module_expr mb.mb_expr)
                    mbs
              | Tstr_include incl -> scan_module_expr incl.incl_mod
              | _ -> ())
            str.str_items
        and scan_module_expr (me : Typedtree.module_expr) =
          match me.mod_desc with
          | Tmod_structure str -> scan_structure str
          | Tmod_constraint (me, _, _, _) -> scan_module_expr me
          | _ -> ()
        in
        ignore u;
        scan_structure str
      in
      List.iter
        (fun (u : Loader.unit_info) ->
          match u.Loader.payload with
          | Loader.Impl str when u.Loader.name <> formats_unit -> scan_unit u str
          | _ -> ())
        units

let check sink ~codecs ~formats_unit ~units ~config_finding =
  check_codecs sink ~codecs ~units ~config_finding;
  check_formats sink ~formats_unit ~units ~config_finding
