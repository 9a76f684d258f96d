let drop_prefix ~prefix s =
  if String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix
  then Some (String.sub s (String.length prefix) (String.length s - String.length prefix))
  else None

let starts_with ~prefix s = drop_prefix ~prefix s <> None

(* "Stdlib.Hashtbl.t", "Stdlib__Hashtbl.t" and "Hashtbl.t" all name the
   same stdlib type depending on how the alias was resolved; normalize
   to the short form so rule tables stay readable. *)
let norm_name s =
  match drop_prefix ~prefix:"Stdlib__" s with
  | Some rest -> rest
  | None -> ( match drop_prefix ~prefix:"Stdlib." s with Some rest -> rest | None -> s)

let norm_path p = norm_name (Path.name p)

let path_last p = Path.last p

let dotted_of_unit name =
  (* Wrapped-library unit names use "__" where the surface syntax uses
     ".": Nt_analysis__Io_log is Nt_analysis.Io_log to everyone else. *)
  let buf = Buffer.create (String.length name) in
  let n = String.length name in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && name.[!i] = '_' && name.[!i + 1] = '_' then begin
      Buffer.add_char buf '.';
      i := !i + 2
    end
    else begin
      Buffer.add_char buf name.[!i];
      incr i
    end
  done;
  Buffer.contents buf

let unit_matches ~unit target =
  (* Executable modules may be wrapped as Dune__exe__Test_par; match the
     plain unit name or any "__"-separated suffix. *)
  unit = target
  || (String.length unit > String.length target + 2
     &&
     let suffix = "__" ^ target in
     String.sub unit (String.length unit - String.length suffix) (String.length suffix)
     = suffix)

(* --- allowlist attributes --- *)

let payload_string (p : Parsetree.payload) =
  match p with
  | PStr
      [
        {
          pstr_desc =
            Pstr_eval ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
          _;
        };
      ] ->
      Some s
  | _ -> None

let first_token s =
  let s = String.trim s in
  let stop = ref (String.length s) in
  String.iteri (fun i c -> if (c = ':' || c = ' ') && i < !stop then stop := i) s;
  String.sub s 0 !stop

(* [@@nt.domain_safe "reason"] allowlists both domain-safety rules;
   [@@nt.alloc_ok "reason"] allowlists the whole alloc family on one
   binding; [@@nt.bounded "cap"] / [@@nt.unbounded "reason"] allowlist
   the bound family (the first documents a cap the analyzer cannot see,
   the second an accepted unbounded growth);
   [@@nt.raise_ok "reason"] accepts an exception escape on one binding
   (the exn-flow family empties its summary and counts the suppression);
   [@@nt.allow "<rule-id>: reason"] allowlists one rule ("*" for all).
   A reason string is required: a bare attribute suppresses nothing, so
   undocumented exemptions do not accumulate. *)
let allows (attrs : Typedtree.attributes) =
  List.concat_map
    (fun (a : Parsetree.attribute) ->
      match (a.attr_name.txt, payload_string a.attr_payload) with
      | _, Some "" | _, None -> []
      | "nt.domain_safe", Some _ ->
          [ Rule.dom_top_mutable.id; Rule.dom_mutable_record.id ]
      | "nt.alloc_ok", Some _ ->
          [
            Rule.alloc_hot_string.id;
            Rule.alloc_hot_format.id;
            Rule.alloc_hot_list.id;
            Rule.alloc_hot_closure.id;
            Rule.alloc_poly_compare.id;
          ]
      | ("nt.bounded" | "nt.unbounded"), Some _ ->
          [ Rule.bound_table.id; Rule.bound_list.id ]
      | "nt.raise_ok", Some _ -> [ Rule.exn_escape.id ]
      | "nt.allow", Some reason -> [ first_token reason ]
      | _ -> [])
    attrs

let allowed allows_list (rule : Rule.t) =
  List.mem rule.id allows_list || List.mem "*" allows_list
