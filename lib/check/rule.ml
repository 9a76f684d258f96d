type t = Nt_rules.t

let rule id family severity doc = { Nt_rules.id; family; severity; doc }

(* --- domain safety --- *)

let dom_top_mutable =
  rule "dom-top-mutable" "domain-safety" Nt_rules.Error
    "top-level mutable container (ref, Hashtbl.t, Buffer.t, Queue.t, Stack.t) in a module \
     reachable from the parallel driver's task closures"

let dom_mutable_record =
  rule "dom-mutable-record" "domain-safety" Nt_rules.Error
    "top-level record literal with mutable fields in a module reachable from the parallel \
     driver's task closures"

(* --- merge laws --- *)

let merge_law_missing =
  rule "merge-law-missing" "merge-law" Nt_rules.Error
    "interface exposes merge : t -> t -> t with no registered merge-law property in the \
     test suite"

(* --- decode purity --- *)

let decode_raise =
  rule "decode-raise" "decode-purity" Nt_rules.Error
    "untyped failure (failwith, invalid_arg, assert false, raise of a stdlib exception) in \
     a decode-path function that does not return result or option"

let decode_partial_match =
  rule "decode-partial-match" "decode-purity" Nt_rules.Error
    "partial pattern match in a decode-path function that does not return result or option"

(* --- hygiene --- *)

let lib_stdout =
  rule "lib-stdout" "hygiene" Nt_rules.Error
    "stdout printing inside lib/ (results must go through nt_obs or be returned as data)"

let obj_magic = rule "obj-magic" "hygiene" Nt_rules.Error "Obj.magic defeats the type system"

let marshal_untrusted =
  rule "marshal-untrusted" "hygiene" Nt_rules.Error
    "Marshal.from_* deserialization of untrusted bytes"

let marshal_output =
  rule "marshal-output" "hygiene" Nt_rules.Warn
    "Marshal serialization (fragile, version-locked wire format)"

(* --- hot-path allocation --- *)

let alloc_hot_string =
  rule "alloc-hot-string" "alloc" Nt_rules.Error
    "intermediate string copy (String.sub, concat, ^, Bytes conversion, Buffer \
     materialization) in per-record hot code"

let alloc_hot_format =
  rule "alloc-hot-format" "alloc" Nt_rules.Error
    "Printf/Format call in per-record hot code (format interpretation allocates; error \
     paths under raise are exempt)"

let alloc_hot_list =
  rule "alloc-hot-list" "alloc" Nt_rules.Error
    "list construction (cons, append, List.map/rev/init) in per-record hot code"

let alloc_hot_closure =
  rule "alloc-hot-closure" "alloc" Nt_rules.Error
    "closure allocated per record (fun nested inside a hot function body)"

let alloc_poly_compare =
  rule "alloc-poly-compare" "alloc" Nt_rules.Error
    "polymorphic =, <>, compare or Hashtbl.hash at a type the compiler does not \
     specialize (walks the heap, allocates, and is slow on every record)"

(* --- accumulator boundedness --- *)

let bound_table =
  rule "bound-table" "bound" Nt_rules.Error
    "Hashtbl add/replace growth in per-record accumulator code with no eviction \
     (remove/reset/clear/filter_inplace) on the same table class anywhere in the module"

let bound_list =
  rule "bound-list" "bound" Nt_rules.Error
    "self-appending container growth (x :: t.f, Set.add into its own field) in per-record \
     accumulator code with no reset of the same field anywhere in the module"

(* --- state-footprint accounting --- *)

let footprint_missing =
  rule "footprint-missing" "footprint" Nt_rules.Error
    "interface exposes merge : t -> t -> t (a sharded accumulator) without a footprint \
     value over t, or its footprint has no registered property in the test suite — the \
     state-accounting gauges would silently omit this component"

(* --- interprocedural exception flow --- *)

let exn_escape =
  rule "exn-escape" "exn-flow" Nt_rules.Error
    "a counted-never-raised root (decode entry, streaming monitor surface, analyze_stream) \
     can transitively raise: its residual may-raise set after try-handler subtraction is \
     non-empty ([@@nt.raise_ok \"reason\"] accepts and counts the escape)"

(* --- codec / format drift --- *)

let codec_arm_missing =
  rule "codec-arm-missing" "codec-drift" Nt_rules.Error
    "a record call/success constructor has no encode (match) or decode (construct) arm in \
     the binary codec dispatch — the two halves of the wire format have forked"

let format_literal_drift =
  rule "format-literal-drift" "codec-drift" Nt_rules.Error
    "a string literal duplicates or version-forks a registered on-disk format tag instead \
     of referencing the Nt_formats registry"

let format_unregistered =
  rule "format-unregistered" "codec-drift" Nt_rules.Error
    "a version-tag-shaped string literal (name/N) names a format absent from the \
     Nt_formats registry"

(* --- configuration drift --- *)

let config_drift =
  rule "config-drift" "config" Nt_rules.Error
    "a configured reachability root, scope prefix or test unit matched no compiled module; \
     the corresponding rule family would be silently weaker"

let all =
  [
    dom_top_mutable;
    dom_mutable_record;
    merge_law_missing;
    decode_raise;
    decode_partial_match;
    lib_stdout;
    obj_magic;
    marshal_untrusted;
    marshal_output;
    alloc_hot_string;
    alloc_hot_format;
    alloc_hot_list;
    alloc_hot_closure;
    alloc_poly_compare;
    bound_table;
    bound_list;
    footprint_missing;
    exn_escape;
    codec_arm_missing;
    format_literal_drift;
    format_unregistered;
    config_drift;
  ]

