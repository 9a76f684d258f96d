type config = {
  roots : string list;
  lib_prefixes : string list;
  decode_prefixes : string list;
  hot_prefixes : string list;
  alloc_roots : string list;
  acc_prefixes : string list;
  test_units : string list;
  excludes : string list;
  exn_roots : string list;
  codecs : (string * string list * string) list;
  formats_unit : string;
  select : Nt_rules.selection;
  max_per_rule : int;
}

let default_config =
  {
    roots = [ "Nt_par__Passes"; "Nt_core__Pipeline"; "Nt_mon__Service"; "Nt_mon__Feed" ];
    lib_prefixes = [ "Nt_" ];
    decode_prefixes = [ "Nt_xdr"; "Nt_rpc"; "Nt_nfs"; "Nt_net"; "Nt_tbin" ];
    hot_prefixes = [ "Nt_analysis" ];
    alloc_roots =
      [
        "Nt_net.Pcap.advance";
        "Nt_net.Pcap.parse";
        "Nt_net.Frame.decode_into";
        "Nt_xdr.Decode.reset";
        "Nt_rpc.Rpc_msg.read_header";
        "Nt_net.Tcp_reassembly.stream";
        "Nt_net.Tcp_reassembly.push_stream";
        "Nt_rpc.Record_mark.push_slice";
        "Nt_trace.Capture.feed_slice";
        "Nt_trace.Record.parse_slice";
        "Nt_trace.Record.Decoder.parse";
        "Nt_trace.Record.add_line";
        "Nt_tbin.Tbin.parse";
      ];
    acc_prefixes = [ "Nt_analysis"; "Nt_lint"; "Nt_mon" ];
    test_units = [ "Test_par" ];
    excludes = [ "check_fixtures" ];
    exn_roots =
      [
        "Nt_trace.Capture.create";
        "Nt_trace.Capture.feed_slice";
        "Nt_trace.Capture.feed_packet";
        "Nt_trace.Capture.feed_pcap";
        "Nt_trace.Capture.finish";
        "Nt_net.Frame.decode_into";
        "Nt_net.Tcp_reassembly.stream";
        "Nt_trace.Record.parse_slice";
        "Nt_tbin.Tbin.Decoder.*";
        "Nt_mon.Feed.*";
        "Nt_mon.Checkpoint.*";
        "Nt_mon.Service.step";
        "Nt_mon.Service.run";
        "Nt_mon.Service.drain";
        "Nt_mon.Service.restore";
        "Nt_mon.Service.shutdown";
        "Nt_mon.Service.conservation";
        "Nt_lint.Engine.observe";
        "Nt_lint.Engine.observe_stats";
        "Nt_core.Pipeline.analyze_stream";
      ];
    codecs = [ ("Nt_nfs__Ops", [ "call"; "success" ], "Nt_tbin__Tbin") ];
    formats_unit = "Nt_formats__Formats";
    select = Nt_rules.every_rule;
    max_per_rule = 100;
  }

type t = {
  findings : Finding.t list;
  tally : Finding.t Nt_rules.tally;
  allowed : int;
  allowed_by_rule : (string * int) list;
  units_scanned : int;
  reachable : string list;
  merge_required : string list;
  merge_covered : string list;
  exn_report : (string * string * int * string list) list;
  load_errors : (string * string) list;
}

let findings t = t.findings
let tally t = t.tally
let allowed t = t.allowed
let allowed_by_rule t = t.allowed_by_rule
let units_scanned t = t.units_scanned
let reachable t = t.reachable
let merge_required t = t.merge_required
let merge_covered t = t.merge_covered
let exn_report t = t.exn_report
let load_errors t = t.load_errors

(* Scope prefixes are raw prefixes of the dotted unit name: "Nt_"
   covers every project library, "Nt_xdr" covers Nt_xdr and
   Nt_xdr.Decode. *)
let prefix_scope prefixes dotted =
  List.exists (fun p -> p <> "" && Syntax.starts_with ~prefix:p dotted) prefixes

let lib_scope config dotted = prefix_scope config.lib_prefixes dotted

let run config root =
  let units, load_errors = Loader.load_dir ~excludes:config.excludes root in
  let reach = Reach.compute ~roots:config.roots units in
  let tally = Nt_rules.tally ~select:config.select ~cap:config.max_per_rule in
  let allowed = ref 0 in
  let allow_by_rule = Hashtbl.create 16 in
  let sink =
    {
      Finding.emit =
        (fun rule loc detail -> ignore (Nt_rules.add tally rule (Finding.of_loc rule loc detail)));
      allow =
        (fun rule ->
          if Nt_rules.enabled config.select rule then begin
            incr allowed;
            let n =
              match Hashtbl.find_opt allow_by_rule rule.id with Some n -> n | None -> 0
            in
            Hashtbl.replace allow_by_rule rule.id (n + 1)
          end);
    }
  in
  let config_finding detail =
    sink.Finding.emit Rule.config_drift
      { Location.none with loc_start = { Lexing.dummy_pos with pos_fname = "<config>" } }
      detail
  in
  (* --- configuration drift: every configured scope must bite --- *)
  List.iter
    (fun root -> config_finding (Printf.sprintf "reachability root %s matched no compiled module" root))
    (Reach.missing_roots reach);
  let impls = List.filter Loader.is_impl units in
  let any_scope prefixes =
    List.filter
      (fun p ->
        not
          (List.exists
             (fun (u : Loader.unit_info) -> prefix_scope [ p ] u.Loader.dotted)
             units))
      prefixes
  in
  List.iter
    (fun p -> config_finding (Printf.sprintf "lib scope prefix %s matched no compiled module" p))
    (any_scope config.lib_prefixes);
  List.iter
    (fun p ->
      config_finding (Printf.sprintf "decode scope prefix %s matched no compiled module" p))
    (any_scope config.decode_prefixes);
  List.iter
    (fun p -> config_finding (Printf.sprintf "hot scope prefix %s matched no compiled module" p))
    (any_scope config.hot_prefixes);
  List.iter
    (fun p ->
      config_finding (Printf.sprintf "accumulator scope prefix %s matched no compiled module" p))
    (any_scope config.acc_prefixes);
  (* --- one call graph: hot sets for the alloc/bound families --- *)
  let graph = Callgraph.build units in
  let entry_fns = [ "observe"; "observe_shard"; "add" ] in
  let seeds accept =
    List.filter_map
      (fun (n : Callgraph.node) -> if accept n then Some n.id else None)
      (Callgraph.nodes graph)
  in
  let hot seeds = Callgraph.closure ~succ:(Callgraph.callees graph) ~seeds in
  (* Per-record code: analysis entry points, decode* in the decode
     scope, and the named roots (the zero-copy capture path's slice
     entry points). *)
  let alloc_seed (n : Callgraph.node) =
    (List.mem n.name entry_fns && prefix_scope config.hot_prefixes n.dotted)
    || (Syntax.starts_with ~prefix:"decode" n.name && prefix_scope config.decode_prefixes n.dotted)
    || List.mem n.display config.alloc_roots
  in
  let alloc_seeds = seeds alloc_seed in
  List.iter
    (fun root ->
      if not (List.exists (fun (n : Callgraph.node) -> n.display = root) (Callgraph.nodes graph))
      then config_finding (Printf.sprintf "alloc-hot root %s matched no binding" root))
    config.alloc_roots;
  (* Merge paths also carry the poly-compare rule (they run per shard,
     not per record, so the other alloc rules would be noise there). *)
  let cmp_hot =
    hot
      (seeds (fun n ->
           alloc_seed n || (n.name = "merge" && prefix_scope config.hot_prefixes n.dotted)))
  in
  let bound_seeds =
    seeds (fun n -> List.mem n.name entry_fns && prefix_scope config.acc_prefixes n.dotted)
  in
  if alloc_seeds = [] then
    config_finding "alloc-hot seed set is empty; hot-path allocation rules never ran";
  if bound_seeds = [] then
    config_finding "bound-hot seed set is empty; accumulator-boundedness rules never ran";
  let alloc_hot = hot alloc_seeds and bound_hot = hot bound_seeds in
  Alloc_check.check sink ~hot:alloc_hot ~cmp_hot (Callgraph.nodes graph);
  (* --- per-unit rule families --- *)
  List.iter
    (fun (u : Loader.unit_info) ->
      if Reach.mem reach u.Loader.name then Domain_check.check sink u;
      if prefix_scope config.decode_prefixes u.Loader.dotted then Purity_check.check sink u;
      if lib_scope config u.Loader.dotted then Hygiene_check.check sink u;
      Bound_check.check sink ~hot:bound_hot u (Callgraph.unit_nodes graph u.Loader.name))
    impls;
  (* --- merge-law and footprint coverage (cross-unit) --- *)
  let merge_required, merge_covered, test_units_found =
    Merge_check.check sink
      ~in_scope:(fun dotted -> lib_scope config dotted)
      ~test_units:config.test_units units
  in
  if test_units_found = 0 then
    config_finding
      (Printf.sprintf "no test unit matched [%s]; merge-law and footprint coverage never ran"
         (String.concat "; " config.test_units));
  (* --- interprocedural exception flow and codec drift --- *)
  let exn_report = Exn_check.check sink ~graph ~roots:config.exn_roots ~config_finding in
  Codec_check.check sink ~codecs:config.codecs ~formats_unit:config.formats_unit ~units
    ~config_finding;
  {
    findings = List.sort Finding.compare (Nt_rules.kept tally);
    tally;
    allowed = !allowed;
    allowed_by_rule =
      List.sort compare (Hashtbl.fold (fun id n acc -> (id, n) :: acc) allow_by_rule []);
    units_scanned = List.length units;
    reachable = Reach.to_list reach;
    merge_required;
    merge_covered;
    exn_report;
    load_errors;
  }
