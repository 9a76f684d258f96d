(** The ntcheck engine: load a build tree's typedtrees, run every
    enabled rule family, return sorted findings plus the bookkeeping the
    CLI and tests assert on. *)

type config = {
  roots : string list;
      (** compilation units whose task closures define domain-safety
          reachability (suffix-matched, e.g. Nt_par__Passes) *)
  lib_prefixes : string list;
      (** dotted-name prefixes of units under hygiene + merge-law scope *)
  decode_prefixes : string list;
      (** dotted-name prefixes of units under decode-purity scope *)
  hot_prefixes : string list;
      (** dotted-name prefixes whose observe/observe_shard/add (and, for
          the poly-compare rule, merge) bindings seed the alloc-hot set;
          decode* bindings in decode scope seed it too *)
  alloc_roots : string list;
      (** dotted names ("Nt_net.Pcap.advance") of further bindings
          that seed the alloc-hot and poly-compare sets: per-packet entry
          points outside the decode* naming convention. A name that
          matches no binding is a config-drift finding. *)
  acc_prefixes : string list;
      (** dotted-name prefixes whose observe/observe_shard/add bindings
          seed the bound-hot set for accumulator-boundedness *)
  test_units : string list;
      (** units scanned for merge-law and footprint property registrations *)
  excludes : string list;  (** path substrings to skip while walking *)
  exn_roots : string list;
      (** display-name patterns ("Nt_tbin.Decoder.*" or exact
          "Nt_core.Pipeline.analyze_stream") of exported bindings the
          exn-escape rule treats as counted-never-raised entry points *)
  codecs : (string * string list * string) list;
      (** (type unit, variant type names, codec unit) triples the
          codec-arm-missing rule checks for full encode/decode dispatch *)
  formats_unit : string;
      (** compilation unit whose top-level string bindings are the
          version-tag registry for the format-drift rules *)
  select : Nt_rules.selection;
  max_per_rule : int;  (** finding cap per rule; excess is counted, not stored *)
}

val default_config : config
(** The shipped tree's configuration: roots at the range fold's entry
    ({!Nt_core.Pipeline}, whose range readers run on worker domains)
    and the monitor, Nt_ scopes,
    decode scope over xdr/rpc/nfs/net, Test_par registrations, and
    check_fixtures excluded. *)

type t

val run : config -> string -> t
(** [run config build_dir] scans every .cmt/.cmti under [build_dir]. *)

val findings : t -> Finding.t list
(** Stored findings (at most [max_per_rule] per rule), sorted by
    {!Finding.compare}. *)

val tally : t -> Finding.t Nt_rules.tally
(** Per-rule, per-severity and capped counts, capped findings
    included. *)

val allowed : t -> int
(** Violations suppressed by allowlist attributes. *)

val allowed_by_rule : t -> (string * int) list
(** Per-rule-id suppression counts, sorted by id — how often each
    escape hatch ([@@nt.alloc_ok], [@@nt.bounded], ...) actually bit. *)

val units_scanned : t -> int
val reachable : t -> string list
val merge_required : t -> string list
val merge_covered : t -> string list

val exn_report : t -> (string * string * int * string list) list
(** Per-function may-raise rows [(display, file, line, exns)] for every
    binding reachable from an exn root; [["*"]] marks an unknown (Top)
    set.  Feeds the CI artifact. *)

val load_errors : t -> (string * string) list
