(* Hot-path allocation rules.  A binding in the alloc-hot set (reachable
   from analysis observe/add entry points or wire decode* entry points,
   closed over the Callgraph) runs once per record; any allocation it performs is a
   per-record cost the ROADMAP's throughput targets cannot absorb.

   Flagged: intermediate string copies, Printf/Format interpretation,
   list construction, closures allocated past the parameter spine, and
   polymorphic comparison at unspecialized types (which walks the heap).
   Not flagged: record/variant/tuple construction (usually the decoded
   output itself) and anything lexically under a raise/failwith — error
   paths are cold by definition.

   The poly-compare rule additionally covers the merge-hot set: merges
   run once per shard, so their allocations amortize, but a polymorphic
   compare there is still a correctness-adjacent performance trap
   (satellite: names/lifetime merge paths).

   [@@nt.alloc_ok "reason"] on the binding is the counted escape hatch
   for necessary materialization (e.g. Decode.fixed_opaque). *)

let string_fns =
  [
    "String.sub"; "String.concat"; "String.cat"; "String.init"; "String.make";
    "String.lowercase_ascii"; "String.uppercase_ascii"; "^"; "Bytes.sub_string";
    "Bytes.to_string"; "Bytes.of_string"; "Buffer.create"; "Buffer.contents";
  ]

let list_fns =
  [
    "@"; "List.append"; "List.rev_append"; "List.concat"; "List.concat_map"; "List.map";
    "List.mapi"; "List.rev"; "List.init"; "List.filter"; "List.filter_map"; "List.sort";
    "List.of_seq"; "List.partition";
  ]

let compare_fns = [ "="; "<>"; "compare"; "Hashtbl.hash"; "Hashtbl.seeded_hash" ]
let raise_fns = [ "raise"; "raise_notrace"; "failwith"; "invalid_arg" ]

(* Mirrors the compiler's comparison specialization (Translprim): at
   these types = / compare / hash compile to direct primitives with no
   heap walk, so flagging them would be noise. *)
let specialized_heads =
  [ "int"; "char"; "bool"; "unit"; "float"; "string"; "bytes"; "int32"; "int64"; "nativeint" ]

let specialized ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> List.mem (Syntax.norm_path p) specialized_heads
  | _ -> false

let first_arg_type args =
  List.find_map
    (fun (_, arg) ->
      match arg with Some (a : Typedtree.expression) -> Some a.exp_type | None -> None)
    args

let scan_binding (sink : Finding.sink) ~allows ~alloc ~cmp ~fn_name
    (root : Typedtree.expression) =
  let report rule loc detail =
    if Syntax.allowed allows rule then sink.Finding.allow rule else sink.Finding.emit rule loc detail
  in
  let raise_depth = ref 0 in
  (* [spine] is true while descending only through the binding's own
     parameter chain (fun a -> fun b -> ...); a Texp_function met after
     any other node is a closure allocated per call.  Texp_let on the
     spine keeps it: optional-argument defaults desugar to
     [fun ?(x = d) -> let x = ... in fun y -> ...], which allocates
     nothing per call beyond the binding's own closure. *)
  let spine = ref true in
  let rec expr sub (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_function _ when !spine -> Tast_iterator.default_iterator.expr sub e
    | Texp_let (_, vbs, body) when !spine ->
        spine := false;
        List.iter (fun (vb : Typedtree.value_binding) -> expr sub vb.vb_expr) vbs;
        spine := true;
        expr sub body;
        spine := false
    | Texp_function _ ->
        if alloc && !raise_depth = 0 then
          report Rule.alloc_hot_closure e.exp_loc
          (Printf.sprintf "closure allocated per call of %s" fn_name);
        (* The flagged closure's own parameter chain is one allocation:
           re-enter spine so fun a b -> ... does not double-report. *)
        spine := true;
        Tast_iterator.default_iterator.expr sub e;
        spine := false
    | _ ->
        spine := false;
        (match e.exp_desc with
        | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
            let n = Syntax.norm_path p in
            if List.mem n raise_fns then begin
              incr raise_depth;
              Tast_iterator.default_iterator.expr sub e;
              decr raise_depth
            end
            else begin
              (if !raise_depth = 0 then
                 if alloc && List.mem n string_fns then
                   report Rule.alloc_hot_string e.exp_loc
                     (Printf.sprintf "%s in hot %s (use offset slices or precomputed atoms)" n
                        fn_name)
                 else if
                   alloc
                   && (Syntax.starts_with ~prefix:"Printf." n
                      || Syntax.starts_with ~prefix:"Format." n)
                 then
                   report Rule.alloc_hot_format e.exp_loc
                     (Printf.sprintf "%s in hot %s (format off the hot path)" n fn_name)
                 else if alloc && List.mem n list_fns then
                   report Rule.alloc_hot_list e.exp_loc
                     (Printf.sprintf "%s in hot %s (reuse arrays or fold without building)" n
                        fn_name)
                 else if cmp && List.mem n compare_fns then
                   match first_arg_type args with
                   | Some ty when not (specialized ty) ->
                       report Rule.alloc_poly_compare e.exp_loc
                         (Printf.sprintf
                            "polymorphic %s at an unspecialized type in hot %s (use a \
                             specialized comparator)"
                            n fn_name)
                   | _ -> ());
              Tast_iterator.default_iterator.expr sub e
            end)
        | Texp_construct (_, cd, _) when cd.Types.cstr_name = "::" ->
            if alloc && !raise_depth = 0 then
              report Rule.alloc_hot_list e.exp_loc
                (Printf.sprintf "list cons in hot %s (reuse arrays or fold without building)"
                   fn_name);
            Tast_iterator.default_iterator.expr sub e
        | _ -> Tast_iterator.default_iterator.expr sub e)
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it root

(* Only function bindings are scanned: a non-function binding evaluates
   once at module init, so its allocations are not per-record even when
   hot code reads it. *)
let is_function (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_function _ -> true
  | _ -> ( match Types.get_desc e.exp_type with Types.Tarrow _ -> true | _ -> false)

let check (sink : Finding.sink) ~hot ~cmp_hot (nodes : Callgraph.node list) =
  List.iter
    (fun (n : Callgraph.node) ->
      let alloc = Hashtbl.mem hot n.id and cmp = Hashtbl.mem cmp_hot n.id in
      if (alloc || cmp) && is_function n.expr then
        scan_binding sink ~allows:n.allows ~alloc ~cmp ~fn_name:n.path n.expr)
    nodes
