(* Workload-level and end-to-end integration tests: short simulations
   with behavioural assertions, the full packet pipeline, and the
   anonymize-then-analyze flow. *)

module Tw = Nt_util.Trace_week
module Record = Nt_trace.Record
module Summary = Nt_analysis.Summary
module Names = Nt_analysis.Names
module Pipeline = Nt_core.Pipeline
module Diurnal = Nt_workload.Diurnal
module Io_patterns = Nt_workload.Io_patterns

(* --- diurnal --- *)

let test_diurnal_peak_vs_night () =
  let noon = Tw.time_of ~day:Tw.Wed ~hour:12 ~minute:0 in
  let night = Tw.time_of ~day:Tw.Wed ~hour:4 ~minute:0 in
  Alcotest.(check bool) "campus noon busier" true
    (Diurnal.campus_intensity noon > 3. *. Diurnal.campus_intensity night);
  Alcotest.(check bool) "eecs noon busier" true
    (Diurnal.eecs_interactive_intensity noon > Diurnal.eecs_interactive_intensity night);
  Alcotest.(check bool) "batch inverts: night busier" true
    (Diurnal.eecs_batch_intensity night > Diurnal.eecs_batch_intensity noon)

let test_diurnal_weekend_quieter () =
  let wed = Tw.time_of ~day:Tw.Wed ~hour:14 ~minute:0 in
  let sat = Tw.time_of ~day:Tw.Sat ~hour:14 ~minute:0 in
  Alcotest.(check bool) "weekday busier" true
    (Diurnal.campus_intensity wed > Diurnal.campus_intensity sat)

let test_diurnal_mean_near_one () =
  let m = Diurnal.weekly_mean Diurnal.campus_intensity in
  Alcotest.(check bool) "campus weekly mean ~1" true (m > 0.7 && m < 1.2);
  let m2 = Diurnal.weekly_mean Diurnal.eecs_interactive_intensity in
  Alcotest.(check bool) "eecs weekly mean ~1" true (m2 > 0.7 && m2 < 1.2)

let test_diurnal_continuous () =
  (* Interpolation: no big jumps between adjacent minutes. *)
  let t = Tw.time_of ~day:Tw.Mon ~hour:8 ~minute:59 in
  let v1 = Diurnal.campus_intensity t in
  let v2 = Diurnal.campus_intensity (t +. 120.) in
  Alcotest.(check bool) "smooth across hour boundary" true (Float.abs (v2 -. v1) < 0.5)

(* --- CAMPUS short simulation --- *)

let campus_hours ?(users = 25) hours ~start_hour =
  let start = Tw.time_of ~day:Tw.Wed ~hour:start_hour ~minute:0 in
  let stop = start +. (3600. *. float_of_int hours) in
  let records = ref [] in
  let config = { Nt_workload.Email.default_config with users } in
  let stats = Pipeline.simulate_campus ~config ~start ~stop ~sink:(fun r -> records := r :: !records) () in
  (stats, List.rev !records, start, stop)

let test_campus_generates_traffic () =
  let stats, records, start, stop = campus_hours 2 ~start_hour:10 in
  Alcotest.(check bool) "records produced" true (stats.records > 500);
  Alcotest.(check int) "sink saw them all" stats.records (List.length records);
  List.iter
    (fun (r : Record.t) ->
      Alcotest.(check bool) "times in window" true (r.time >= start && r.time <= stop +. 2.))
    records

let test_campus_records_sorted () =
  let _, records, _, _ = campus_hours 2 ~start_hour:10 in
  let rec sorted = function
    | (a : Record.t) :: (b : Record.t) :: tl -> a.time <= b.time && sorted (b :: tl)
    | _ -> true
  in
  Alcotest.(check bool) "sink receives time-sorted records" true (sorted records)

let test_campus_deterministic () =
  let _, r1, _, _ = campus_hours 1 ~start_hour:9 in
  let _, r2, _, _ = campus_hours 1 ~start_hour:9 in
  Alcotest.(check int) "same record count" (List.length r1) (List.length r2);
  List.iter2
    (fun (a : Record.t) (b : Record.t) ->
      Alcotest.(check bool) "identical records" true (Record.to_line a = Record.to_line b))
    r1 r2

let test_campus_locks_zero_length () =
  let _, records, _, _ = campus_hours 2 ~start_hour:11 in
  let lock_creates =
    List.filter
      (fun r ->
        match Record.name r with
        | Some n -> Record.proc r = Nt_nfs.Proc.Create && Names.categorize n = Names.Lock
        | None -> false)
      records
  in
  Alcotest.(check bool) "locks created" true (List.length lock_creates > 5);
  List.iter
    (fun r ->
      Alcotest.(check (option int64)) "lock size 0" (Some 0L) (Record.post_size r))
    lock_creates

let test_campus_all_v3 () =
  let _, records, _, _ = campus_hours 1 ~start_hour:10 in
  List.iter
    (fun (r : Record.t) -> Alcotest.(check int) "campus speaks v3" 3 r.version)
    records

let test_campus_mostly_data_calls () =
  let _, records, _, _ = campus_hours 3 ~start_hour:9 in
  let s = Summary.create () in
  List.iter (Summary.observe s) records;
  Alcotest.(check bool) "data calls dominate (paper Table 1)" true (Summary.data_ops_pct s > 60.);
  Alcotest.(check bool) "reads outnumber writes" true (Summary.read_write_op_ratio s > 1.)

let test_campus_reply_times_follow_calls () =
  let _, records, _, _ = campus_hours 1 ~start_hour:10 in
  List.iter
    (fun (r : Record.t) ->
      match r.reply_time with
      | Some rt -> Alcotest.(check bool) "reply after call" true (rt > r.time)
      | None -> ())
    records

(* --- EECS short simulation --- *)

let eecs_hours ?(users = 15) hours ~start_hour =
  let start = Tw.time_of ~day:Tw.Wed ~hour:start_hour ~minute:0 in
  let stop = start +. (3600. *. float_of_int hours) in
  let records = ref [] in
  let config = { Nt_workload.Research.default_config with users } in
  let stats = Pipeline.simulate_eecs ~config ~start ~stop ~sink:(fun r -> records := r :: !records) () in
  (stats, List.rev !records)

let test_eecs_generates_traffic () =
  let stats, records = eecs_hours 3 ~start_hour:10 in
  Alcotest.(check bool) "records produced" true (stats.records > 200);
  Alcotest.(check int) "all delivered" stats.records (List.length records)

let test_eecs_metadata_dominated () =
  let _, records = eecs_hours 3 ~start_hour:10 in
  let s = Summary.create () in
  List.iter (Summary.observe s) records;
  Alcotest.(check bool) "metadata dominates (paper Table 1)" true (Summary.data_ops_pct s < 50.)

let test_eecs_mixes_versions () =
  let _, records = eecs_hours 3 ~start_hour:10 in
  let versions = List.sort_uniq compare (List.map (fun (r : Record.t) -> r.version) records) in
  Alcotest.(check (list int)) "v2 and v3 clients" [ 2; 3 ] versions

let test_eecs_write_dominated_ops () =
  let _, records = eecs_hours 4 ~start_hour:10 in
  let s = Summary.create () in
  List.iter (Summary.observe s) records;
  Alcotest.(check bool) "write ops outnumber reads (paper)" true
    (Summary.read_write_op_ratio s < 1.0)

(* --- full packet pipeline --- *)

let test_pcap_pipeline_lossless_udp () =
  let start = Tw.time_of ~day:Tw.Wed ~hour:10 ~minute:0 in
  let stop = start +. 1800. in
  let buf = Buffer.create (1 lsl 20) in
  let writer = Nt_net.Pcap.writer_to_buffer buf in
  let config = { Nt_workload.Research.default_config with users = 8 } in
  let stats = Pipeline.eecs_to_pcap ~config ~start ~stop ~writer () in
  Alcotest.(check int) "nothing dropped" 0 stats.packets_dropped;
  let cap_stats, records = Pipeline.capture_pcap (Buffer.contents buf) in
  Alcotest.(check int) "every record recovered" stats.run.records (List.length records);
  Alcotest.(check int) "no orphans" 0 cap_stats.orphan_replies;
  Alcotest.(check int) "no rpc errors" 0 cap_stats.rpc_errors

let test_pcap_pipeline_campus_tcp () =
  let start = Tw.time_of ~day:Tw.Wed ~hour:10 ~minute:0 in
  let stop = start +. 900. in
  let buf = Buffer.create (1 lsl 20) in
  let writer = Nt_net.Pcap.writer_to_buffer buf in
  let config = { Nt_workload.Email.default_config with users = 10 } in
  let stats = Pipeline.campus_to_pcap ~config ~start ~stop ~writer () in
  let cap_stats, records = Pipeline.capture_pcap (Buffer.contents buf) in
  Alcotest.(check int) "every record recovered" stats.run.records (List.length records);
  Alcotest.(check int) "no tcp gaps without loss" 0 cap_stats.tcp_gaps;
  (* The recovered trace carries the same op mix. *)
  let direct = Summary.create () and recovered = Summary.create () in
  let records2 = ref [] in
  ignore (Pipeline.simulate_campus ~config ~start ~stop ~sink:(fun r -> records2 := r :: !records2) ());
  List.iter (Summary.observe direct) !records2;
  List.iter (Summary.observe recovered) records;
  Alcotest.(check int) "same op totals" (Summary.total_ops direct) (Summary.total_ops recovered);
  Alcotest.(check (float 1.) "same bytes read") (Summary.bytes_read direct)
    (Summary.bytes_read recovered)

let test_pcap_pipeline_with_loss () =
  let start = Tw.time_of ~day:Tw.Wed ~hour:10 ~minute:0 in
  let stop = start +. 900. in
  let buf = Buffer.create (1 lsl 20) in
  let writer = Nt_net.Pcap.writer_to_buffer buf in
  let config = { Nt_workload.Email.default_config with users = 10 } in
  let fault = Nt_sim.Fault.bernoulli_loss 0.05 in
  let stats = Pipeline.campus_to_pcap ~config ~fault ~start ~stop ~writer () in
  Alcotest.(check bool) "monitor dropped packets" true (stats.packets_dropped > 0);
  let cap_stats, records = Pipeline.capture_pcap (Buffer.contents buf) in
  (* Loss means incomplete recovery, visible in the stats. *)
  Alcotest.(check bool) "some records lost" true (List.length records < stats.run.records);
  Alcotest.(check bool) "loss is accounted" true
    (cap_stats.orphan_replies + cap_stats.lost_replies + cap_stats.tcp_gaps > 0)

(* The batch tools as built, run from the test directory or the repo. *)
let tool name =
  List.find Sys.file_exists
    [ "../bin/" ^ name ^ ".exe"; "_build/default/bin/" ^ name ^ ".exe" ]

(* nfswlgen takes independent loss (--loss) or a fault plan (--fault),
   not both: the plan would silently win. *)
let test_nfswlgen_refuses_loss_with_fault () =
  let exe = tool "nfswlgen" in
  let out = Filename.temp_file "nfswlgen" ".out" in
  let gen ?(format = "pcap") args =
    Sys.command
      (Filename.quote_command exe ~stderr:Filename.null
         ([ "--users"; "2"; "--hours"; "0.01"; "--format"; format; "-o"; out ] @ args))
  in
  Alcotest.(check int) "--fault burst --loss 0.05 is a usage error" 2
    (gen [ "--fault"; "burst"; "--loss"; "0.05" ]);
  Alcotest.(check int) "--loss alone runs" 0 (gen [ "--loss"; "0.05" ]);
  Alcotest.(check int) "--fault alone runs" 0 (gen [ "--fault"; "burst" ]);
  (* The record formats never pass through the monitor port, so a loss
     or fault plan there would do nothing. *)
  List.iter
    (fun format ->
      Alcotest.(check int) ("--loss with " ^ format ^ " is a usage error") 2
        (gen ~format [ "--loss"; "0.5" ]);
      Alcotest.(check int) ("--fault with " ^ format ^ " is a usage error") 2
        (gen ~format [ "--fault"; "truncate" ]);
      Alcotest.(check int) (format ^ " alone runs") 0 (gen ~format []))
    [ "trace"; "tbin" ];
  Sys.remove out

let with_pcap f =
  let path = Filename.temp_file "nt_workload_test" ".pcap" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          let config = { Nt_workload.Research.default_config with users = 2 } in
          let start = Nt_util.Trace_week.time_of ~day:Wed ~hour:9 ~minute:0 in
          ignore
            (Pipeline.eecs_to_pcap ~config ~start ~stop:(start +. 300.)
               ~writer:(Nt_net.Pcap.writer_to_channel oc) ()
              : Pipeline.pcap_stats));
      f path)

(* The session samples once more on the way out, so the snapshot holds
   the run's resources, not the startup reading. *)
let test_nfstrace_final_sample () =
  with_pcap (fun pcap ->
      let json = Filename.temp_file "nt_workload_test" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove json)
        (fun () ->
          Alcotest.(check int) "nfstrace runs" 0
            (Sys.command
               (Filename.quote_command (tool "nfstrace") ~stderr:Filename.null
                  [ pcap; "-o"; Filename.null; "--metrics=" ^ json ]));
          let snap =
            match Nt_obs.Obs.Json.parse (In_channel.with_open_bin json In_channel.input_all) with
            | Ok v -> v
            | Error e -> Alcotest.failf "snapshot: %s" e
          in
          let metric name =
            Option.value ~default:0. (Nt_obs.Obs.Json.metric_number snap name)
          in
          Alcotest.(check bool) "rt.samples >= 2" true (metric "rt.samples" >= 2.);
          Alcotest.(check bool) "rt.heap_words > 0" true (metric "rt.heap_words" > 0.)))

(* A run too short for a major collection exports no heap gauge rather
   than a zero one, and its snapshot still passes the schema. *)
let test_short_run_heap_gauges () =
  let trace = Filename.temp_file "nt_workload_test" ".trace" in
  let json = Filename.temp_file "nt_workload_test" ".json" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ trace; json ])
    (fun () ->
      Alcotest.(check int) "nfswlgen runs" 0
        (Sys.command
           (Filename.quote_command (tool "nfswlgen") ~stderr:Filename.null
              [ "-s"; "eecs"; "-u"; "2"; "--hours"; "0.01"; "-o"; trace ]));
      Alcotest.(check int) "nfsstats runs" 0
        (Sys.command
           (Filename.quote_command (tool "nfsstats") ~stdout:Filename.null
              [ trace; "--metrics=" ^ json ]));
      let snap =
        match Nt_obs.Obs.Json.parse (In_channel.with_open_bin json In_channel.input_all) with
        | Ok v -> v
        | Error e -> Alcotest.failf "snapshot: %s" e
      in
      List.iter
        (fun name ->
          match Nt_obs.Obs.Json.metric_number snap name with
          | Some v -> Alcotest.(check bool) (name ^ " is not zero") true (v > 0.)
          | None -> ())
        [ "rt.heap_words"; "rt.top_heap_words" ];
      let validator =
        List.find Sys.file_exists
          [ "../bench/validate_snapshot.exe"; "_build/default/bench/validate_snapshot.exe" ]
      in
      let schema =
        List.find Sys.file_exists
          [ "../bench/obs_snapshot.schema.json"; "bench/obs_snapshot.schema.json" ]
      in
      Alcotest.(check int) "validate_snapshot accepts it" 0
        (Sys.command (Filename.quote_command validator ~stderr:Filename.null [ schema; json ])))

(* A pcap global header cut short leaves no endianness or tick unit to
   salvage with: every tool that reads captures says so in one line
   and exits 1. *)
let test_corrupt_pcap_header () =
  with_pcap (fun pcap ->
      let cut = In_channel.with_open_bin pcap (fun ic -> really_input_string ic 20) in
      Out_channel.with_open_bin pcap (fun oc -> output_string oc cut);
      let err = Filename.temp_file "nt_workload_test" ".err" in
      Fun.protect
        ~finally:(fun () -> Sys.remove err)
        (fun () ->
          List.iter
            (fun name ->
              let rc =
                Sys.command
                  (Filename.quote_command (tool name) ~stdout:Filename.null ~stderr:err [ pcap ])
              in
              Alcotest.(check int) (name ^ " exits 1") 1 rc;
              match In_channel.with_open_bin err In_channel.input_lines with
              | [ line ] ->
                  let prefix = name ^ ": corrupt pcap (missing global header)" in
                  if not (String.starts_with ~prefix line) then
                    Alcotest.failf "%s: stderr %S" name line
              | lines -> Alcotest.failf "%s: %d stderr lines" name (List.length lines))
            [ "nfstrace"; "nfsstats"; "nfslint"; "nfsanon"; "nfsreplay" ]))

(* --- anonymize then analyze --- *)

let test_anonymized_trace_still_analyzable () =
  let _, records, _, _ = campus_hours 2 ~start_hour:10 in
  let anon = Nt_trace.Anonymize.create Nt_trace.Anonymize.default_config in
  let anonymized = List.map (Nt_trace.Anonymize.record anon) records in
  let n_orig = Names.create () and n_anon = Names.create () in
  List.iter (Names.observe n_orig) records;
  List.iter (Names.observe n_anon) anonymized;
  (* Lock accounting survives anonymization because the anonymizer
     preserves the .lock marker — the paper's design requirement. *)
  Alcotest.(check (float 5.) "lock share survives")
    (Names.lock_created_deleted_pct n_orig)
    (Names.lock_created_deleted_pct n_anon);
  (* Volumes unchanged. *)
  let s_orig = Summary.create () and s_anon = Summary.create () in
  List.iter (Summary.observe s_orig) records;
  List.iter (Summary.observe s_anon) anonymized;
  Alcotest.(check (float 0.) "bytes unchanged") (Summary.bytes_read s_orig)
    (Summary.bytes_read s_anon);
  (* UIDs actually got rewritten. *)
  let uids l = List.sort_uniq compare (List.map (fun (r : Record.t) -> r.uid) l) in
  Alcotest.(check bool) "uids differ" true (uids records <> uids anonymized)

(* --- io patterns --- *)

let test_seeky_write_reaches_total () =
  let server = Nt_sim.Server.create ~ip:(Nt_net.Ip_addr.v 10 0 0 2) () in
  let fs = Nt_sim.Server.fs server in
  let node =
    Nt_sim.Sim_fs.create_file fs ~time:0. ~parent:(Nt_sim.Sim_fs.root fs) ~name:"f" ~mode:0o644
      ~uid:0 ~gid:0
  in
  let fh = Nt_sim.Sim_fs.fh_of_node fs node in
  let count = ref 0 in
  let client =
    Nt_sim.Client.create
      (Nt_sim.Client.default_config ~ip:(Nt_net.Ip_addr.v 10 0 0 3) ~version:3)
      ~server ~sink:(fun _ -> incr count) ~rng:(Nt_util.Prng.create 5L)
  in
  let s = Nt_sim.Client.session client ~time:10. ~uid:0 ~gid:0 in
  let rng = Nt_util.Prng.create 6L in
  Io_patterns.seeky_write rng s fh ~total:200_000 ~seg_min:8_000 ~seg_max:16_000 ~jump_prob:0.4
    ~sync:false;
  Alcotest.(check bool) "writes happened" true (!count > 10);
  Alcotest.(check int64) "file reaches total" 200_000L (Nt_sim.Sim_fs.size node)

let () =
  Alcotest.run "nt_workload"
    [
      ( "diurnal",
        [
          Alcotest.test_case "peak vs night" `Quick test_diurnal_peak_vs_night;
          Alcotest.test_case "weekend quieter" `Quick test_diurnal_weekend_quieter;
          Alcotest.test_case "weekly mean" `Quick test_diurnal_mean_near_one;
          Alcotest.test_case "continuous" `Quick test_diurnal_continuous;
        ] );
      ( "campus",
        [
          Alcotest.test_case "generates traffic" `Quick test_campus_generates_traffic;
          Alcotest.test_case "sorted output" `Quick test_campus_records_sorted;
          Alcotest.test_case "deterministic" `Quick test_campus_deterministic;
          Alcotest.test_case "locks zero length" `Quick test_campus_locks_zero_length;
          Alcotest.test_case "all v3" `Quick test_campus_all_v3;
          Alcotest.test_case "data-call dominated" `Quick test_campus_mostly_data_calls;
          Alcotest.test_case "reply after call" `Quick test_campus_reply_times_follow_calls;
        ] );
      ( "eecs",
        [
          Alcotest.test_case "generates traffic" `Quick test_eecs_generates_traffic;
          Alcotest.test_case "metadata dominated" `Quick test_eecs_metadata_dominated;
          Alcotest.test_case "mixes v2/v3" `Quick test_eecs_mixes_versions;
          Alcotest.test_case "write dominated" `Quick test_eecs_write_dominated_ops;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "udp lossless roundtrip" `Quick test_pcap_pipeline_lossless_udp;
          Alcotest.test_case "tcp roundtrip" `Quick test_pcap_pipeline_campus_tcp;
          Alcotest.test_case "monitor loss accounted" `Quick test_pcap_pipeline_with_loss;
          Alcotest.test_case "nfswlgen: --loss or --fault, not both" `Quick
            test_nfswlgen_refuses_loss_with_fault;
          Alcotest.test_case "nfstrace --metrics takes a final sample" `Quick
            test_nfstrace_final_sample;
          Alcotest.test_case "a cut pcap header is reported, not raised" `Quick
            test_corrupt_pcap_header;
          Alcotest.test_case "a short run exports no zero heap gauge" `Quick
            test_short_run_heap_gauges;
        ] );
      ( "integration",
        [
          Alcotest.test_case "anonymize then analyze" `Quick test_anonymized_trace_still_analyzable;
          Alcotest.test_case "seeky write total" `Quick test_seeky_write_reaches_total;
        ] );
    ]
