(** Declarative registry of ntcheck's typedtree rules.

    Each rule is an {!Nt_rules.t}, as nfslint's are: a stable id, a
    family, a fixed severity and a one-line doc string. The engine
    hands the registry to {!Nt_rules} for rule selection and counting,
    and the CLI prints it for [--rules]. Families are ["domain-safety"],
    ["merge-law"], ["decode-purity"], ["hygiene"], ["alloc"],
    ["bound"], ["footprint"], ["exn-flow"], ["codec-drift"] and
    ["config"]. *)

type t = Nt_rules.t

val dom_top_mutable : t
val dom_mutable_record : t
val merge_law_missing : t
val decode_raise : t
val decode_partial_match : t
val lib_stdout : t
val obj_magic : t
val marshal_untrusted : t
val marshal_output : t
val alloc_hot_string : t
val alloc_hot_format : t
val alloc_hot_list : t
val alloc_hot_closure : t
val alloc_poly_compare : t
val bound_table : t
val bound_list : t
val footprint_missing : t
val exn_escape : t
val codec_arm_missing : t
val format_literal_drift : t
val format_unregistered : t
val config_drift : t

val all : t list
(** Registry order is the [--rules] listing order. *)
