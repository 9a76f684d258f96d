(* ntcheck engine tests over the check_fixtures mini-project: every
   rule fires exactly once on its seeded violation, stays silent on the
   clean twin next to it, and the allowlist attribute suppresses
   without hiding. *)

module Engine = Nt_check.Engine
module Rule = Nt_check.Rule
module Finding = Nt_check.Finding

let fixture_config =
  {
    Engine.default_config with
    roots = [ "Fix_driver"; "Fix_ghost" ];
    (* Fix_ghost exists nowhere: config-drift's seeded violation *)
    lib_prefixes = [ "Fix_" ];
    decode_prefixes = [ "Fix_decode"; "Fix_tbin" ];
    hot_prefixes = [ "Fix_hot" ];
    alloc_roots = [];
    acc_prefixes = [ "Fix_bound" ];
    test_units = [ "Fix_testreg" ];
    excludes = [];
    exn_roots = [ "Fix_exn.entry"; "Fix_exn_clean.entry"; "Fix_exn_ok.entry" ];
    codecs = [ ("Fix_codec", [ "op" ], "Fix_codec"); ("Fix_codec_clean", [ "op" ], "Fix_codec_clean") ];
    formats_unit = "Fix_formats";
  }

(* dune runtest runs with cwd _build/default/test; dune exec from the
   workspace root does not, so fall back to the build-tree path. *)
let fixture_dir =
  List.find Sys.file_exists [ "check_fixtures"; "_build/default/test/check_fixtures" ]

let run ?(config = fixture_config) () = Engine.run config fixture_dir

let rule_count t id =
  Nt_rules.count (Engine.tally t) (List.find (fun (r : Rule.t) -> r.id = id) Rule.all)

let test_loads_cleanly () =
  let t = run () in
  Alcotest.(check (list (pair string string))) "no unreadable cmts" [] (Engine.load_errors t);
  Alcotest.(check int) "all fixture units scanned" 25 (Engine.units_scanned t)

(* decode-raise is seeded twice: once in fix_decode and once in the
   tbin-shaped fixture; alloc-hot-string is seeded twice: once in
   fix_hotdep and once in a nested module of fix_hot.  Every other rule
   fires on exactly one line. *)
let twice = [ "decode-raise"; "alloc-hot-string" ]
let seeded = List.length Rule.all + List.length twice

let test_each_rule_fires_exactly_once () =
  let t = run () in
  List.iter
    (fun (r : Rule.t) ->
      let expect = if List.mem r.id twice then 2 else 1 in
      Alcotest.(check int)
        (Printf.sprintf "%s fires exactly %d time(s)" r.id expect)
        expect (rule_count t r.id))
    Rule.all;
  Alcotest.(check int) "one finding per seeded violation, nothing else" seeded
    (List.length (Engine.findings t))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_clean_twins_stay_silent () =
  let t = run () in
  List.iter
    (fun (f : Finding.t) ->
      List.iter
        (fun twin ->
          if contains f.Finding.file twin then
            Alcotest.failf "finding %s in clean twin %s" f.Finding.rule.id f.Finding.file)
        [
          "fix_unreachable"; "fix_acc_covered"; "fix_driver"; "fix_testreg"; "fix_hot_clean";
          "fix_hot_ok"; "fix_bound_clean"; "fix_bound_ok"; "fix_tbin_clean"; "fix_exn_clean";
          "fix_exn_ok"; "fix_codec_clean"; "fix_formats";
        ])
    (Engine.findings t)

let test_suppression_counts () =
  let t = run () in
  Alcotest.(check int) "allowlisted violations counted, not reported" 5 (Engine.allowed t);
  Alcotest.(check (list (pair string int)))
    "one suppression per allowlist attribute, under the right rule"
    [
      ("alloc-hot-string", 1); ("bound-list", 1); ("bound-table", 1); ("dom-top-mutable", 1);
      ("exn-escape", 1);
    ]
    (Engine.allowed_by_rule t)

let test_reachability_set () =
  let t = run () in
  Alcotest.(check (list string)) "driver plus its import, nothing more"
    [ "Fix_driver"; "Fix_mutable" ] (Engine.reachable t)

let test_merge_bookkeeping () =
  let t = run () in
  Alcotest.(check (list string)) "both accumulators required"
    [ "Fix_acc"; "Fix_acc_covered" ]
    (List.sort compare (Engine.merge_required t));
  Alcotest.(check (list string)) "registration credited" [ "Fix_acc_covered" ]
    (Engine.merge_covered t)

let test_per_rule_cap () =
  let t = run ~config:{ fixture_config with Engine.max_per_rule = 0 } () in
  Alcotest.(check int) "no findings under a zero cap" 0 (List.length (Engine.findings t));
  Alcotest.(check int) "every violation counted as overflow" seeded
    (Nt_rules.capped (Engine.tally t));
  Alcotest.(check int) "suppression is not capped" 5 (Engine.allowed t)

let test_disabled_rule () =
  let select = { Nt_rules.every_rule with disabled = [ "lib-stdout" ] } in
  let t = run ~config:{ fixture_config with Engine.select } () in
  Alcotest.(check int) "disabled rule silent" 0 (rule_count t "lib-stdout");
  Alcotest.(check int) "everything else unaffected" (seeded - 1)
    (List.length (Engine.findings t))

let test_enabled_only () =
  let select = { Nt_rules.every_rule with enabled_only = Some [ "obj-magic" ] } in
  let t = run ~config:{ fixture_config with Engine.select } () in
  Alcotest.(check int) "only the enabled rule" 1 (List.length (Engine.findings t));
  Alcotest.(check int) "and it is obj-magic" 1 (rule_count t "obj-magic")

let test_missing_test_unit_fails_loudly () =
  let t =
    run
      ~config:
        { fixture_config with Engine.roots = [ "Fix_driver" ]; test_units = [ "Fix_nope" ] }
      ()
  in
  Alcotest.(check int) "config-drift for the dead test unit" 1 (rule_count t "config-drift");
  Alcotest.(check int) "every merge now uncovered" 2 (rule_count t "merge-law-missing")

let test_findings_are_sorted_and_json_escapes () =
  let t = run () in
  let fs = Engine.findings t in
  Alcotest.(check bool) "sorted by location" true
    (List.sort Finding.compare fs = fs);
  let json = Finding.list_to_json fs in
  Alcotest.(check bool) "json array" true
    (String.length json >= 2 && json.[0] = '[' && json.[String.length json - 1] = ']')

let test_exn_report_rows () =
  let t = run () in
  let rows = Engine.exn_report t in
  let row d = List.find_opt (fun (display, _, _, _) -> display = d) rows in
  (match row "Fix_exn.entry" with
  | Some (_, file, _, may) ->
      Alcotest.(check (list string)) "entry residual is the escaping Failure" [ "Failure" ] may;
      Alcotest.(check bool) "row points at the fixture source" true (contains file "fix_exn")
  | None -> Alcotest.fail "Fix_exn.entry missing from the may-raise report");
  (match row "Fix_exn_clean.entry" with
  | Some (_, _, _, may) ->
      Alcotest.(check (list string)) "handler subtraction empties the clean twin" [] may
  | None -> Alcotest.fail "Fix_exn_clean.entry missing from the may-raise report");
  (* the closure is the un-annotated graph: the accepted spill still shows *)
  Alcotest.(check bool) "annotated callee still censused" true
    (List.exists (fun (d, _, _, _) -> d = "Fix_exn_ok.spill") rows)

let test_sarif_output () =
  let t = run () in
  let sarif = Finding.list_to_sarif (Engine.findings t) in
  Alcotest.(check bool) "sarif envelope" true
    (contains sarif {|"version":"2.1.0"|} && contains sarif {|"name":"ntcheck"|});
  (* one rule entry per registered rule, one result per finding *)
  let count needle hay =
    let nh = String.length hay and nn = String.length needle in
    let n = ref 0 in
    for i = 0 to nh - nn do
      if String.sub hay i nn = needle then incr n
    done;
    !n
  in
  Alcotest.(check int) "every registered rule listed" (List.length Rule.all)
    (count {|"shortDescription"|} sarif);
  Alcotest.(check int) "one result per finding"
    (List.length (Engine.findings t))
    (count {|"ruleId"|} sarif)

(* --- the ntcheck binary's exit status over a copy of the fixtures --- *)

(* The copy's path must not contain check_fixtures, or the binary's
   default excludes would skip it. [damage] rewrites one file. *)
let with_fixture_copy ?(damage = fun _ -> ()) f =
  let dir = Filename.temp_dir "nt_fixture_copy" "" in
  Array.iter
    (fun name ->
      if Filename.check_suffix name ".cmt" || Filename.check_suffix name ".cmti" then begin
        let data =
          In_channel.with_open_bin (Filename.concat fixture_dir name) In_channel.input_all
        in
        Out_channel.with_open_bin (Filename.concat dir name) (fun oc -> output_string oc data)
      end)
    (Sys.readdir fixture_dir);
  damage dir;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun name -> Sys.remove (Filename.concat dir name)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let ntcheck_exe =
  List.find Sys.file_exists [ "../bin/ntcheck.exe"; "_build/default/bin/ntcheck.exe" ]

(* Exit status and stderr of the binary run over [dir]. *)
let ntcheck args dir =
  let err = Filename.temp_file "ntcheck" ".err" in
  let code =
    Sys.command
      (Filename.quote_command ntcheck_exe ~stdout:Filename.null ~stderr:err (args @ [ dir ]))
  in
  let text = In_channel.with_open_bin err In_channel.input_all in
  Sys.remove err;
  (code, text)

(* A finding past the per-rule cap is not listed but still counts: a
   zero cap must fail the error gate exactly as the default cap does. *)
let test_capped_errors_fail_the_gate () =
  let t = run ~config:{ fixture_config with Engine.max_per_rule = 0 } () in
  let tally = Engine.tally t in
  let warns = List.length (List.filter (fun (r : Rule.t) -> r.severity = Nt_rules.Warn) Rule.all) in
  Alcotest.(check int) "capped errors counted" (seeded - warns)
    (Nt_rules.severity_count tally Nt_rules.Error);
  Alcotest.(check bool) "the error gate fails" true
    (Nt_rules.fails ~fail_on:(Some Nt_rules.Error) tally);
  with_fixture_copy (fun dir ->
      let tally =
        Engine.tally (Engine.run { Engine.default_config with Engine.max_per_rule = 0 } dir)
      in
      let code, err = ntcheck [ "--max-per-rule"; "0"; "--fail-on"; "error" ] dir in
      Alcotest.(check int) "ntcheck exits 1 with every finding capped" 1 code;
      let errors = Nt_rules.severity_count tally Nt_rules.Error in
      Alcotest.(check bool) "and counts the capped errors" true
        (errors > 0
        && contains err (Printf.sprintf " %d error(s)," errors)
        && contains err
             (Printf.sprintf "(%d findings dropped past per-rule cap)" (Nt_rules.capped tally))))

(* A unit that does not load is a unit no rule saw; the run must not
   pass, whatever the threshold. *)
let test_unreadable_unit_exits_2 () =
  let victim = "fix_hygiene.cmt" in
  let damage dir =
    let path = Filename.concat dir victim in
    let data = In_channel.with_open_bin path In_channel.input_all in
    Out_channel.with_open_bin path (fun oc ->
        output_string oc (String.sub data 0 (String.length data / 2)))
  in
  with_fixture_copy ~damage (fun dir ->
      let t = Engine.run fixture_config dir in
      Alcotest.(check (list string)) "the truncated file is the load error"
        [ Filename.concat dir victim ] (List.map fst (Engine.load_errors t));
      Alcotest.(check int) "one unit fewer" (Engine.units_scanned (run ()) - 1)
        (Engine.units_scanned t);
      let code, err = ntcheck [ "--fail-on"; "never" ] dir in
      Alcotest.(check int) "ntcheck exits 2 even at --fail-on never" 2 code;
      Alcotest.(check bool) "after listing the path" true
        (contains err ("unreadable " ^ Filename.concat dir victim)))

(* --- may-raise fixpoint properties on random call graphs --- *)

module Exnflow = Nt_check.Exnflow

let gen_graph =
  let open QCheck.Gen in
  let exn_name = oneofl [ "Failure"; "Not_found"; "Invalid_argument" ] in
  int_range 1 8 >>= fun n ->
  let names = List.init n (fun i -> "n" ^ string_of_int i) in
  let gen_item =
    oneof
      [
        map (fun e -> Exnflow.Prim (e, ())) exn_name;
        map (fun t -> Exnflow.Call t) (oneofl names);
        return (Exnflow.Prim_top ());
      ]
  in
  let gen_catch =
    oneof
      [
        return Exnflow.Catch_all;
        map (fun l -> Exnflow.Catch_names l) (list_size (int_range 0 2) exn_name);
      ]
  in
  let gen_guard =
    map2 (fun c items -> Exnflow.Guard (c, items)) gen_catch (list_size (int_range 0 3) gen_item)
  in
  let gen_summary = list_size (int_range 0 4) (oneof [ gen_item; gen_guard ]) in
  flatten_l (List.map (fun name -> map (fun s -> (name, s)) gen_summary) names)

let lookup sol id = match Hashtbl.find_opt sol id with Some e -> e | None -> Exnflow.bot

let prop_solve_is_fixpoint =
  QCheck.Test.make ~name:"solve terminates on a fixpoint of eval" ~count:300
    (QCheck.make gen_graph) (fun g ->
      let sol = Exnflow.solve g in
      List.for_all
        (fun (id, items) -> Exnflow.equal_exns (Exnflow.eval (lookup sol) items) (lookup sol id))
        g)

let prop_solve_monotone =
  QCheck.Test.make ~name:"adding a raise never shrinks any solution" ~count:300
    QCheck.(pair (make gen_graph) small_nat)
    (fun (g, k) ->
      let i = k mod List.length g in
      let g' =
        List.mapi
          (fun j (id, items) ->
            if j = i then (id, Exnflow.Prim ("Extra", ()) :: items) else (id, items))
          g
      in
      let s1 = Exnflow.solve g and s2 = Exnflow.solve g' in
      List.for_all (fun (id, _) -> Exnflow.leq (lookup s1 id) (lookup s2 id)) g)

let () =
  Alcotest.run "nt_check"
    [
      ( "fixtures",
        [
          Alcotest.test_case "fixture cmts load" `Quick test_loads_cleanly;
          Alcotest.test_case "each rule fires exactly once" `Quick
            test_each_rule_fires_exactly_once;
          Alcotest.test_case "clean twins stay silent" `Quick test_clean_twins_stay_silent;
          Alcotest.test_case "allowlist suppresses and counts" `Quick test_suppression_counts;
          Alcotest.test_case "reachability is driver + import" `Quick test_reachability_set;
          Alcotest.test_case "merge requirement and coverage" `Quick test_merge_bookkeeping;
        ] );
      ( "engine",
        [
          Alcotest.test_case "per-rule cap overflows" `Quick test_per_rule_cap;
          Alcotest.test_case "--disable silences a rule" `Quick test_disabled_rule;
          Alcotest.test_case "--enable restricts to a rule" `Quick test_enabled_only;
          Alcotest.test_case "dead test unit fails loudly" `Quick
            test_missing_test_unit_fails_loudly;
          Alcotest.test_case "findings sorted, json well-formed" `Quick
            test_findings_are_sorted_and_json_escapes;
          Alcotest.test_case "may-raise report rows" `Quick test_exn_report_rows;
          Alcotest.test_case "sarif output well-formed" `Quick test_sarif_output;
        ] );
      ( "cli",
        [
          Alcotest.test_case "capped errors fail the gate" `Quick test_capped_errors_fail_the_gate;
          Alcotest.test_case "an unreadable unit exits 2" `Quick test_unreadable_unit_exits_2;
        ] );
      ( "exnflow",
        [
          QCheck_alcotest.to_alcotest prop_solve_is_fixpoint;
          QCheck_alcotest.to_alcotest prop_solve_monotone;
        ] );
    ]
