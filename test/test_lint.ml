(* Lint engine tests: clean simulator output must be finding-free, each
   rule must fire exactly once on a trace mutated to violate it exactly
   once, and the differential fault harness must light up the rule
   family its plan predicts. *)

module Record = Nt_trace.Record
module Capture = Nt_trace.Capture
module Anonymize = Nt_trace.Anonymize
module Pipeline = Nt_core.Pipeline
module Fault = Nt_sim.Fault
module Lint = Nt_lint.Engine
module Rule = Nt_lint.Rule
module Finding = Nt_lint.Finding
module Anon_check = Nt_lint.Anon_check
module Ops = Nt_nfs.Ops
module Types = Nt_nfs.Types
module Fh = Nt_nfs.Fh
module Ip = Nt_net.Ip_addr

let t0 = 1003622400.0
let dir_fh = Fh.make ~fsid:1 ~fileid:2
let file_fh = Fh.make ~fsid:1 ~fileid:3
let attr = { Types.default_fattr with size = 1_000_000L; fileid = 3L }

let mk i call result : Record.t =
  {
    time = t0 +. (0.5 *. float_of_int i);
    reply_time = Some (t0 +. (0.5 *. float_of_int i) +. 0.001);
    client = Ip.v 10 1 0 20;
    server = Ip.v 10 1 1 2;
    version = 3;
    xid = 0x1000 + i;
    uid = 1042;
    gid = 100;
    call;
    result = Some result;
  }

let lookup i = mk i (Ops.Lookup { dir = dir_fh; name = "plain" })
    (Ok (Ops.R_lookup { fh = file_fh; obj = Some attr; dir = None }))

let read i = mk i (Ops.Read { fh = file_fh; offset = 0L; count = 4096 })
    (Ok (Ops.R_read { attr = Some attr; count = 4096; eof = false }))

let lint ?stats ?config records = Pipeline.lint_records ?config ?stats records

let finding_ids t =
  List.map (fun (f : Finding.t) -> f.Finding.rule.id) (Lint.findings t)

let check_clean what t =
  Alcotest.(check (list string)) (what ^ " lint-clean") [] (finding_ids t)

(* The trace violates exactly one rule exactly once. *)
let check_one what ~rule ~index t =
  match Lint.findings t with
  | [ f ] ->
      Alcotest.(check string) (what ^ " rule") rule f.Finding.rule.id;
      Alcotest.(check int) (what ^ " index") index f.Finding.index
  | fs ->
      Alcotest.failf "%s: expected exactly one finding, got [%s]" what
        (String.concat "; " (List.map Finding.to_string fs))

(* --- clean simulator output --- *)

let hour = 3600.

let simulate which =
  let acc = ref [] in
  let sink r = acc := r :: !acc in
  (match which with
  | `Eecs -> ignore (Pipeline.simulate_eecs ~start:t0 ~stop:(t0 +. (0.3 *. hour)) ~sink ())
  | `Campus -> ignore (Pipeline.simulate_campus ~start:t0 ~stop:(t0 +. (0.3 *. hour)) ~sink ()));
  List.rev !acc

let test_clean_eecs () =
  let records = simulate `Eecs in
  Alcotest.(check bool) "records exist" true (List.length records > 100);
  check_clean "eecs" (lint records)

let test_clean_campus () = check_clean "campus" (lint (simulate `Campus))

let anon_config = { Lint.default_config with anonymized = true }

let test_anonymized_clean () =
  let records = simulate `Eecs in
  let anon = Anonymize.create Anonymize.default_config in
  let anonymized = List.map (Anonymize.record anon) records in
  check_clean "anonymized eecs" (lint ~config:anon_config anonymized);
  Alcotest.(check int) "no leaks under full mapping" 0 (Anonymize.leaks anon)

let test_leak_counter () =
  let records = simulate `Eecs in
  let anon = Anonymize.create { Anonymize.default_config with map_ids = false } in
  let half = List.map (Anonymize.record anon) records in
  Alcotest.(check bool) "raw ids counted as leaks" true (Anonymize.leaks anon > 0);
  let t = lint ~config:anon_config half in
  Alcotest.(check bool) "linter flags the leaked ids" true
    (Nt_rules.count (Lint.tally t) Rule.unmapped_id > 0)

(* --- one rule, one violation, one finding --- *)

let test_unanswered_call () =
  let records =
    [ lookup 0; read 1; { (read 2) with reply_time = None; result = None }; read 3 ]
  in
  check_one "unanswered" ~rule:"unanswered-call" ~index:2 (lint records)

let test_duplicate_xid () =
  let r1 = read 1 in
  check_one "duplicate" ~rule:"duplicate-xid" ~index:2 (lint [ lookup 0; r1; r1 ])

let test_fh_use_after_remove () =
  let getattr i = mk i (Ops.Getattr file_fh) (Ok (Ops.R_attr attr)) in
  let remove i = mk i (Ops.Remove { dir = dir_fh; name = "plain" }) (Ok Ops.R_empty) in
  let records = [ lookup 0; getattr 1; remove 2; getattr 3 ] in
  check_one "use-after-remove" ~rule:"fh-use-after-remove" ~index:3 (lint records)

let test_fh_before_introduction () =
  check_one "before-introduction" ~rule:"fh-before-introduction" ~index:0 (lint [ read 0 ])

let test_offset_beyond_size () =
  let small = { attr with size = 4096L } in
  let past =
    mk 1
      (Ops.Read { fh = file_fh; offset = 8192L; count = 100 })
      (Ok (Ops.R_read { attr = Some small; count = 100; eof = true }))
  in
  check_one "beyond-size" ~rule:"offset-beyond-size" ~index:1 (lint [ lookup 0; past ])

let test_reply_before_call () =
  let bad = { (read 1) with reply_time = Some (t0 -. 1.) } in
  check_one "reply-before-call" ~rule:"reply-before-call" ~index:1 (lint [ lookup 0; bad ])

let test_non_monotonic_time () =
  let back = { (read 2) with time = t0 -. 5.; reply_time = Some (t0 -. 4.999) } in
  check_one "non-monotonic" ~rule:"non-monotonic-time" ~index:2 (lint [ lookup 0; read 1; back ])

let test_bad_io_range () =
  let bad =
    mk 1
      (Ops.Read { fh = file_fh; offset = -1L; count = 4096 })
      (Ok (Ops.R_read { attr = Some attr; count = 0; eof = false }))
  in
  check_one "bad-range" ~rule:"bad-io-range" ~index:1 (lint [ lookup 0; bad ])

let test_raw_ip () =
  let bare = mk 0 (Ops.Getattr file_fh) (Ok (Ops.R_attr { attr with uid = 10500; gid = 10600 })) in
  let leaky = { bare with client = Ip.v 192 168 1 7; uid = 10500; gid = 10600 } in
  check_one "raw-ip" ~rule:"raw-ip" ~index:0 (lint ~config:anon_config [ leaky ])

let test_unmapped_id () =
  let bare = mk 0 (Ops.Getattr file_fh) (Ok (Ops.R_attr { attr with uid = 10500; gid = 10600 })) in
  let leaky = { bare with uid = 42; gid = 10600 } in
  check_one "unmapped-id" ~rule:"unmapped-id" ~index:0 (lint ~config:anon_config [ leaky ])

let anon_lookup i name =
  let r = mk i (Ops.Lookup { dir = dir_fh; name })
      (Ok (Ops.R_lookup { fh = file_fh; obj = None; dir = None }))
  in
  { r with uid = 10500; gid = 10600 }

let test_name_residue () =
  check_one "residue" ~rule:"name-residue" ~index:0
    (lint ~config:anon_config [ anon_lookup 0 "zq9x7" ])

let test_dictionary_word () =
  (* The word suppresses the residue finding for the same name. *)
  check_one "dictionary" ~rule:"dictionary-word" ~index:0
    (lint ~config:anon_config [ anon_lookup 0 "secret-plans" ])

(* --- capture-hygiene rules from stats --- *)

let zero_stats : Capture.stats =
  {
    frames = 0; undecodable_frames = 0; corrupt_frames = 0; rpc_messages = 0;
    rpc_errors = 0; non_nfs = 0; calls = 0; replies = 0; duplicate_calls = 0;
    duplicate_replies = 0; orphan_replies = 0; lost_replies = 0; tcp_gaps = 0;
    salvaged_records = 0; skipped_pcap_bytes = 0; truncated_pcap_tails = 0;
  }

let lint_stats stats =
  let t = Lint.create Lint.default_config in
  Lint.observe_stats t stats;
  t

let test_hygiene_rules () =
  check_clean "zero stats" (lint_stats zero_stats);
  check_clean "balanced stats"
    (lint_stats { zero_stats with frames = 10; rpc_messages = 10; calls = 5; replies = 5 });
  check_one "broken conservation" ~rule:"loss-accounting" ~index:(-1)
    (lint_stats { zero_stats with calls = 5; replies = 3 });
  check_one "loss visible" ~rule:"capture-loss" ~index:(-1)
    (lint_stats { zero_stats with calls = 5; replies = 3; lost_replies = 2 });
  check_one "damage visible" ~rule:"frame-damage" ~index:(-1)
    (lint_stats { zero_stats with frames = 10; undecodable_frames = 2 });
  check_one "silent skip" ~rule:"salvage-gap" ~index:(-1)
    (lint_stats { zero_stats with skipped_pcap_bytes = 64 })

(* --- the linter as a differential oracle --- *)

let ge_plan =
  {
    Fault.none with
    drop = Fault.Gilbert_elliott { p_gb = 0.05; p_bg = 0.3; loss_good = 0.001; loss_bad = 0.3 };
  }

let truncate_plan = { Fault.none with truncate = 0.3; truncate_to = 64 }

let family_count t family =
  List.length
    (List.filter
       (fun (f : Finding.t) -> f.Finding.rule.family = family)
       (Lint.findings t))

let oracle plan =
  let d = Pipeline.eecs_degraded ~plan ~start:t0 ~stop:(t0 +. (0.15 *. hour)) () in
  Pipeline.lint_degraded d

let test_oracle_clean_side () =
  let o = oracle ge_plan in
  Alcotest.(check (list string)) "clean capture lints clean" [] (finding_ids o.Pipeline.clean_lint)

let test_oracle_ge_loss () =
  let o = oracle ge_plan in
  Alcotest.(check bool) "loss yields protocol findings" true
    (family_count o.Pipeline.degraded_lint "protocol" > 0)

let test_oracle_truncation () =
  let o = oracle truncate_plan in
  Alcotest.(check bool) "truncation yields hygiene findings" true
    (family_count o.Pipeline.degraded_lint "hygiene" > 0)

(* A pcap source carries the capture's stats next to its records, so
   the engine fed from it sees the hygiene family as nfslint does. *)
let test_pcap_source_hygiene () =
  let path = Filename.temp_file "nt_lint_test" ".pcap" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          ignore
            (Pipeline.eecs_to_pcap ~fault:truncate_plan ~start:t0 ~stop:(t0 +. (0.15 *. hour))
               ~writer:(Nt_net.Pcap.writer_to_channel oc) ()
              : Pipeline.pcap_stats));
      let t =
        Lint.create
          { Lint.default_config with reorder_window = 2. *. Capture.lost_reply_timeout }
      in
      let src = Pipeline.iter_trace path (Lint.observe t) in
      Option.iter (Lint.observe_stats t) src.Pipeline.capture;
      Alcotest.(check bool) "records linted" true (Lint.records_seen t > 0);
      let hygiene =
        List.sort_uniq compare
          (List.filter_map
             (fun (f : Finding.t) ->
               if f.Finding.rule.family = "hygiene" then Some f.Finding.rule.id else None)
             (Lint.findings t))
      in
      Alcotest.(check (list string)) "hygiene findings" [ "capture-loss"; "frame-damage" ] hygiene)

(* --- properties --- *)

(* Whatever the anonymizer emits must parse under the checker's grammar:
   the two are mirror images, and this pins them together. *)
let prop_anonymizer_output_passes =
  let anon = Anonymize.create Anonymize.default_config in
  QCheck.Test.make ~name:"anonymizer output passes the leak checker" ~count:500
    QCheck.(string_of_size QCheck.Gen.(0 -- 30))
    (fun s ->
      QCheck.assume (not (String.contains s '/'));
      match Anon_check.check_name Anon_check.default (Anonymize.name anon s) with
      | Anon_check.Name_ok -> true
      | Anon_check.Dictionary w ->
          QCheck.Test.fail_reportf "dictionary %S for %S" w s
      | Anon_check.Residue why -> QCheck.Test.fail_reportf "residue (%s) for %S" why s)

let clean_run n = lookup 0 :: List.init n (fun i -> read (i + 1))

let prop_dropped_reply_fires_once =
  QCheck.Test.make ~name:"dropping one reply yields exactly one unanswered-call" ~count:100
    QCheck.(pair (int_range 1 40) (int_range 0 1000))
    (fun (n, pick) ->
      let k = 1 + (pick mod n) in
      let records =
        List.mapi
          (fun i r ->
            if i = k then { r with Record.reply_time = None; result = None } else r)
          (clean_run n)
      in
      let t = lint records in
      match Lint.findings t with
      | [ f ] -> f.Finding.rule.id = "unanswered-call" && f.Finding.index = k
      | _ -> false)

let prop_duplicated_record_fires_once =
  QCheck.Test.make ~name:"duplicating one record yields exactly one duplicate-xid" ~count:100
    QCheck.(pair (int_range 1 40) (int_range 0 1000))
    (fun (n, pick) ->
      let k = 1 + (pick mod n) in
      let records =
        List.concat_map
          (fun (i, r) -> if i = k then [ r; r ] else [ r ])
          (List.mapi (fun i r -> (i, r)) (clean_run n))
      in
      let t = lint records in
      match Lint.findings t with
      | [ f ] -> f.Finding.rule.id = "duplicate-xid" && f.Finding.index = k + 1
      | _ -> false)

let () =
  Alcotest.run "nt_lint"
    [
      ( "clean",
        [
          Alcotest.test_case "eecs simulator output" `Quick test_clean_eecs;
          Alcotest.test_case "campus simulator output" `Quick test_clean_campus;
          Alcotest.test_case "anonymized round-trip" `Quick test_anonymized_clean;
          Alcotest.test_case "leak counter" `Quick test_leak_counter;
        ] );
      ( "rules",
        [
          Alcotest.test_case "unanswered-call" `Quick test_unanswered_call;
          Alcotest.test_case "duplicate-xid" `Quick test_duplicate_xid;
          Alcotest.test_case "fh-use-after-remove" `Quick test_fh_use_after_remove;
          Alcotest.test_case "fh-before-introduction" `Quick test_fh_before_introduction;
          Alcotest.test_case "offset-beyond-size" `Quick test_offset_beyond_size;
          Alcotest.test_case "reply-before-call" `Quick test_reply_before_call;
          Alcotest.test_case "non-monotonic-time" `Quick test_non_monotonic_time;
          Alcotest.test_case "bad-io-range" `Quick test_bad_io_range;
          Alcotest.test_case "raw-ip" `Quick test_raw_ip;
          Alcotest.test_case "unmapped-id" `Quick test_unmapped_id;
          Alcotest.test_case "name-residue" `Quick test_name_residue;
          Alcotest.test_case "dictionary-word" `Quick test_dictionary_word;
          Alcotest.test_case "hygiene stats" `Quick test_hygiene_rules;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "clean side lint-clean" `Quick test_oracle_clean_side;
          Alcotest.test_case "ge loss => protocol" `Quick test_oracle_ge_loss;
          Alcotest.test_case "truncation => hygiene" `Quick test_oracle_truncation;
          Alcotest.test_case "pcap source => hygiene" `Quick test_pcap_source_hygiene;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_anonymizer_output_passes;
          QCheck_alcotest.to_alcotest prop_dropped_reply_fires_once;
          QCheck_alcotest.to_alcotest prop_duplicated_record_fires_once;
        ] );
    ]
