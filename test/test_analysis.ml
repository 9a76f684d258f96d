(* Analysis tests: crafted access streams with known answers for every
   analysis the paper's evaluation uses. *)

module Io_log = Nt_analysis.Io_log
module Runs = Nt_analysis.Runs
module Reorder = Nt_analysis.Reorder
module Lifetime = Nt_analysis.Lifetime
module Hourly = Nt_analysis.Hourly
module Names = Nt_analysis.Names
module Summary = Nt_analysis.Summary
module Record = Nt_trace.Record
module Ops = Nt_nfs.Ops
module Types = Nt_nfs.Types
module Fh = Nt_nfs.Fh
module Ip = Nt_net.Ip_addr
module Tw = Nt_util.Trace_week

let dir_fh = Fh.make ~fsid:1 ~fileid:2
let file_fh = Fh.make ~fsid:1 ~fileid:3

let record ?(time = Tw.week_start) ?(result = None) call : Record.t =
  {
    time;
    reply_time = Some (time +. 0.001);
    client = Ip.v 10 0 0 1;
    server = Ip.v 10 0 0 2;
    version = 3;
    xid = 1;
    uid = 1;
    gid = 1;
    call;
    result;
  }

let read_rec ?(fh = file_fh) ~time ~offset ~count ~size ~eof () =
  record ~time
    ~result:(Some (Ok (Ops.R_read { attr = Some { Types.default_fattr with size = Int64.of_int size }; count; eof })))
    (Ops.Read { fh; offset = Int64.of_int offset; count })

let write_rec ?(fh = file_fh) ~time ~offset ~count ~size () =
  record ~time
    ~result:
      (Some
         (Ok
            (Ops.R_write
               {
                 count;
                 committed = Types.File_sync;
                 attr = Some { Types.default_fattr with size = Int64.of_int size };
               })))
    (Ops.Write { fh; offset = Int64.of_int offset; count; stable = Types.File_sync })

(* --- io_log --- *)

let test_io_log_collects () =
  let accesses =
    List.filter_map Io_log.of_record
      [
        read_rec ~time:1. ~offset:0 ~count:100 ~size:1000 ~eof:false ();
        write_rec ~time:2. ~offset:100 ~count:50 ~size:1000 ();
        record (Ops.Getattr file_fh) (* ignored *);
      ]
  in
  Alcotest.(check (list int)) "two accesses" [ 100; 50 ]
    (List.map (fun (_, (a : Io_log.access)) -> a.count) accesses);
  Alcotest.(check bool) "one file" true
    (List.for_all (fun (fh, _) -> Fh.equal fh file_fh) accesses)

let test_io_log_lost_reply_uses_call () =
  match Io_log.of_record (record (Ops.Read { fh = file_fh; offset = 0L; count = 4096 })) with
  | Some (_, a) -> Alcotest.(check int) "requested count assumed" 4096 a.count
  | None -> Alcotest.fail "a lost-reply read is an access"

let access ?(read = true) ?(eof = false) ?(size = 1 lsl 20) at offset count =
  { Io_log.at; offset; count; is_read = read; at_eof = eof; file_size = size }

(* The ported cases assert on the batch oracle (test/runs_oracle.ml)
   unchanged, and check that the online fold over the same accesses of
   one file agrees with it. *)
let fold ?window accesses =
  let t = Runs.create ?window () in
  Array.iter (Runs.add t file_fh) accesses;
  Runs.finish t;
  t

(* The pattern every read run of a read-only fold has, when they share
   one. *)
let fold_pattern ~jump_blocks run =
  let r = (Runs.table3 ~strict:(jump_blocks = 1) (fold ~window:0. run)).read in
  if r.entire_pct = 100. then "entire"
  else if r.sequential_pct = 100. then "sequential"
  else if r.random_pct = 100. then "random"
  else "mixed"

let check_classify ~jump_blocks label want run =
  Alcotest.(check string) label want
    (Runs.pattern_to_string (Runs_oracle.classify ~jump_blocks run));
  Alcotest.(check string) "fold agrees" want (fold_pattern ~jump_blocks run)

let test_sort_window_fixes_swap () =
  let accesses =
    [| access 0.000 0 8192; access 0.001 16384 8192; access 0.002 8192 8192 |]
  in
  let sorted, swaps = Runs_oracle.sort_window 0.01 accesses in
  Alcotest.(check int) "one swap" 1 swaps;
  Alcotest.(check (list int)) "ascending offsets" [ 0; 8192; 16384 ]
    (Array.to_list (Array.map (fun (a : Io_log.access) -> a.offset) sorted));
  let t = fold ~window:0.01 accesses in
  Alcotest.(check int) "fold swaps once" 1 (Runs.swaps t);
  Alcotest.(check (float 0.)) "fold sees the sorted run" 100.
    (Runs.table3 ~strict:true t).read.sequential_pct

let test_sort_window_respects_window () =
  let accesses = [| access 0.0 8192 8192; access 5.0 0 8192 |] in
  let _, swaps = Runs_oracle.sort_window 0.01 accesses in
  Alcotest.(check int) "distant accesses untouched" 0 swaps;
  Alcotest.(check int) "fold agrees" 0 (Runs.swaps (fold ~window:0.01 accesses))

let test_sort_window_zero_is_identity () =
  let accesses = [| access 0.0 8192 8192; access 0.001 0 8192 |] in
  let sorted, swaps = Runs_oracle.sort_window 0. accesses in
  Alcotest.(check int) "no swaps" 0 swaps;
  Alcotest.(check int) "unchanged" 8192 sorted.(0).Io_log.offset;
  Alcotest.(check int) "fold agrees" 0 (Runs.swaps (fold ~window:0. accesses))

(* --- runs --- *)

let check_split want accesses =
  Alcotest.(check int) "fold agrees" want (Runs.table3 (fold ~window:0. accesses)).total_runs

let test_split_on_eof () =
  let accesses = [| access ~eof:true 0. 0 100; access 1. 0 100 |] in
  Alcotest.(check int) "eof splits" 2 (List.length (Runs_oracle.split accesses));
  check_split 2 accesses

let test_split_on_gap () =
  let accesses = [| access 0. 0 100; access 31. 100 100; access 32. 200 100 |] in
  Alcotest.(check int) "30s gap splits" 2 (List.length (Runs_oracle.split accesses));
  check_split 2 accesses

let test_split_contiguous () =
  let accesses = Array.init 10 (fun i -> access (float_of_int i) (i * 8192) 8192) in
  Alcotest.(check int) "one run" 1 (List.length (Runs_oracle.split accesses));
  check_split 1 accesses

let test_classify_sequential () =
  let run = Array.init 5 (fun i -> access (float_of_int i) (8192 * i) 8192) in
  check_classify ~jump_blocks:1 "sequential" "sequential" run

let test_classify_entire () =
  let size = 5 * 8192 in
  let run = Array.init 5 (fun i -> access ~size (float_of_int i) (8192 * i) 8192) in
  check_classify ~jump_blocks:1 "entire" "entire" run

let test_classify_random () =
  let run = [| access 0. 0 8192; access 1. (100 * 8192) 8192; access 2. 8192 8192 |] in
  check_classify ~jump_blocks:1 "random" "random" run

let test_classify_small_jump_tolerance () =
  (* A 3-block forward jump: random under the strict rule, sequential
     with the paper's 10-block tolerance. *)
  let run = [| access 0. 0 8192; access 1. (4 * 8192) 8192 |] in
  check_classify ~jump_blocks:1 "strict random" "random" run;
  check_classify ~jump_blocks:10 "tolerant sequential" "sequential" run

let test_classify_rounding () =
  (* The paper's example: 0k(8k) 8k(8k) 16k(7k) 24k(8k) is sequential
     despite the missing 1k. *)
  let run =
    [| access 0. 0 8192; access 1. 8192 8192; access 2. 16384 7168; access 3. 24576 8192 |]
  in
  check_classify ~jump_blocks:1 "paper example sequential" "sequential" run

let test_classify_singleton () =
  let whole = [| access ~size:100 0. 0 100 |] in
  check_classify ~jump_blocks:1 "whole singleton entire" "entire" whole;
  let partial = [| access ~size:100_000 0. 0 100 |] in
  check_classify ~jump_blocks:1 "partial singleton sequential" "sequential" partial

(* A finished fold over records, as the report's runs fold reads them. *)
let fold_records ?window records =
  let t = Runs.create ?window () in
  List.iter (Runs.observe t) records;
  Runs.finish t;
  t

let test_table3_percentages () =
  (* Two read runs on one file (split by eof), one write run on another. *)
  let f2 = Fh.make ~fsid:1 ~fileid:99 in
  let t =
    Runs.table3 ~strict:true
      (fold_records ~window:0.
         [
           read_rec ~time:1. ~offset:0 ~count:100 ~size:100 ~eof:true ();
           write_rec ~fh:f2 ~time:1. ~offset:0 ~count:100 ~size:100 ();
           read_rec ~time:2. ~offset:0 ~count:100 ~size:100 ~eof:true ();
         ])
  in
  Alcotest.(check int) "three runs" 3 t.total_runs;
  Alcotest.(check (float 1e-6) "reads 66.7%") (200. /. 3.) t.reads_pct;
  Alcotest.(check (float 1e-6) "writes 33.3%") (100. /. 3.) t.writes_pct;
  Alcotest.(check (float 1e-6) "read runs entire") 100. t.read.entire_pct

let test_by_file_size_cumulative () =
  let c =
    Runs.by_file_size
      (fold_records ~window:0. [ read_rec ~time:1. ~offset:0 ~count:1000 ~size:1000 ~eof:true () ])
  in
  let last = Array.length c.total - 1 in
  Alcotest.(check (float 1e-6) "total reaches 100") 100. c.total.(last);
  Alcotest.(check bool) "monotone" true
    (Array.for_all Fun.id (Array.init last (fun i -> c.total.(i) <= c.total.(i + 1))))

(* --- sequentiality metric --- *)

(* The metric of the one read run a fold over [run] counts: the only
   bucket of Figure 5 that holds a value. *)
let fold_metric ~c run =
  let curve = Runs.sequentiality (fold ~window:0. run) in
  let values = if c = 1 then curve.read_strict else curve.read_allowed in
  match List.filter (fun v -> not (Float.is_nan v)) (Array.to_list values) with
  | [ v ] -> v
  | _ -> Alcotest.fail "expected one run"

let check_metric ~c run =
  Alcotest.(check (float 1e-9) "fold agrees") (Runs_oracle.run_metric ~c run) (fold_metric ~c run)

let test_metric_sequential_run () =
  let run = Array.init 10 (fun i -> access (float_of_int i) (i * 8192) 8192) in
  Alcotest.(check (float 1e-9) "fully sequential") 1.0 (Runs_oracle.run_metric ~c:1 run);
  check_metric ~c:1 run

let test_metric_alternating () =
  (* Every second transition is a long seek: metric ~0.5 with c=10. *)
  let run =
    Array.init 10 (fun i ->
        let base = if i mod 2 = 0 then i / 2 * 8192 else 1000 * 8192 in
        access (float_of_int i) base 8192)
  in
  let m = Runs_oracle.run_metric ~c:10 run in
  Alcotest.(check bool) "metric near 0" true (m < 0.4);
  check_metric ~c:10 run

let test_metric_small_jumps () =
  (* Jumps of 3 blocks: strict fails, c=10 passes. *)
  let run = Array.init 5 (fun i -> access (float_of_int i) (i * 4 * 8192) 8192) in
  Alcotest.(check (float 1e-9) "c=10 tolerant") 1.0 (Runs_oracle.run_metric ~c:10 run);
  Alcotest.(check (float 1e-9) "strict zero") 0.0 (Runs_oracle.run_metric ~c:1 run);
  check_metric ~c:10 run;
  check_metric ~c:1 run

let test_metric_singleton () =
  Alcotest.(check (float 1e-9) "singleton 1.0") 1.0
    (Runs_oracle.run_metric ~c:1 [| access 0. 0 100 |]);
  check_metric ~c:1 [| access 0. 0 100 |]

(* --- reorder --- *)

let test_swapped_monotone () =
  let t = Reorder.create () in
  let rng = Nt_util.Prng.create 3L in
  List.init 500 (fun i ->
      let jitter = if Nt_util.Prng.chance rng 0.1 then 0.004 else 0. in
      read_rec
        ~time:(Tw.week_start +. (float_of_int i *. 0.001) +. jitter)
        ~offset:(i * 8192) ~count:8192 ~size:(500 * 8192) ~eof:(i = 499) ())
  (* The monitor sees packets in wire-time order. *)
  |> List.sort (fun (a : Record.t) (b : Record.t) -> Float.compare a.time b.time)
  |> List.iter (Reorder.observe t);
  Reorder.finish t;
  let pct ms = List.assoc ms (Reorder.swapped t) in
  Alcotest.(check (float 1e-9) "zero window, zero swaps") 0. (pct 0.);
  Alcotest.(check bool) "grows with window" true
    (pct 2. <= pct 5. +. 1e-9 && pct 5. <= pct 10. +. 1e-9);
  Alcotest.(check bool) "some swaps found" true (pct 10. > 0.);
  Alcotest.(check bool) "out of order fraction positive" true (Reorder.out_of_order t > 0.)

let test_knee_detection () =
  let points = [ (0., 0.); (1., 5.); (2., 9.); (5., 10.); (10., 10.1); (20., 10.15) ] in
  Alcotest.(check (float 1e-9) "knee at plateau start") 5. (Reorder.knee points)

(* --- lifetime --- *)

let lt_config = { (Lifetime.config ~phase1_start:1000.) with phase1_len = 1000.; phase2_len = 1000. }

let test_lifetime_overwrite () =
  let t = Lifetime.create lt_config in
  Lifetime.observe t (write_rec ~time:1100. ~offset:0 ~count:8192 ~size:8192 ());
  Lifetime.observe t (write_rec ~time:1200. ~offset:0 ~count:8192 ~size:8192 ());
  let r = Lifetime.result t in
  Alcotest.(check int) "two births" 2 r.births;
  Alcotest.(check int) "one death" 1 r.deaths;
  Alcotest.(check (float 1e-6) "overwrite 100%") 100. r.deaths_overwrite_pct;
  Alcotest.(check (float 1e-6) "lifetime 100s in cdf") 1.0 (Lifetime.cdf_at r 120.);
  Alcotest.(check (float 1e-6) "not before 100s") 0.0 (Lifetime.cdf_at r 60.)

let test_lifetime_truncate () =
  let t = Lifetime.create lt_config in
  Lifetime.observe t (write_rec ~time:1100. ~offset:0 ~count:16384 ~size:16384 ());
  Lifetime.observe t
    (record ~time:1300.
       (Ops.Setattr { fh = file_fh; attrs = { Types.empty_sattr with set_size = Some 0L } }));
  let r = Lifetime.result t in
  Alcotest.(check int) "both blocks die" 2 r.deaths;
  Alcotest.(check (float 1e-6) "truncate 100%") 100. r.deaths_truncate_pct

let test_lifetime_deletion () =
  let t = Lifetime.create lt_config in
  (* Bind the name so the remove can be resolved. *)
  Lifetime.observe t
    (record ~time:1050.
       ~result:(Some (Ok (Ops.R_create { fh = Some file_fh; attr = None })))
       (Ops.Create { dir = dir_fh; name = "tmp"; mode = 0o600; exclusive = false }));
  Lifetime.observe t (write_rec ~time:1100. ~offset:0 ~count:8192 ~size:8192 ());
  Lifetime.observe t
    (record ~time:1400. ~result:(Some (Ok Ops.R_empty)) (Ops.Remove { dir = dir_fh; name = "tmp" }));
  let r = Lifetime.result t in
  Alcotest.(check int) "one death" 1 r.deaths;
  Alcotest.(check (float 1e-6) "deletion 100%") 100. r.deaths_deletion_pct

let test_lifetime_rename_kills_target () =
  let t = Lifetime.create lt_config in
  let f2 = Fh.make ~fsid:1 ~fileid:77 in
  Lifetime.observe t
    (record ~time:1010.
       ~result:(Some (Ok (Ops.R_create { fh = Some file_fh; attr = None })))
       (Ops.Create { dir = dir_fh; name = "target"; mode = 0o644; exclusive = false }));
  Lifetime.observe t (write_rec ~time:1050. ~offset:0 ~count:8192 ~size:8192 ());
  Lifetime.observe t
    (record ~time:1060.
       ~result:(Some (Ok (Ops.R_create { fh = Some f2; attr = None })))
       (Ops.Create { dir = dir_fh; name = "tmp"; mode = 0o644; exclusive = false }));
  Lifetime.observe t (write_rec ~fh:f2 ~time:1070. ~offset:0 ~count:8192 ~size:8192 ());
  Lifetime.observe t
    (record ~time:1100. ~result:(Some (Ok Ops.R_empty))
       (Ops.Rename { from_dir = dir_fh; from_name = "tmp"; to_dir = dir_fh; to_name = "target" }));
  let r = Lifetime.result t in
  Alcotest.(check int) "old target died" 1 r.deaths;
  Alcotest.(check (float 1e-6) "by deletion") 100. r.deaths_deletion_pct

let test_lifetime_extension_births () =
  let t = Lifetime.create lt_config in
  (* Write far past EOF: the skipped blocks are extension births. *)
  Lifetime.observe t (write_rec ~time:1100. ~offset:0 ~count:8192 ~size:8192 ());
  Lifetime.observe t (write_rec ~time:1200. ~offset:(8192 * 5) ~count:8192 ~size:(8192 * 6) ());
  let r = Lifetime.result t in
  Alcotest.(check int) "births incl. gap" 6 r.births;
  Alcotest.(check bool) "extensions counted" true (r.births_extension_pct > 0.)

let test_lifetime_pre_existing_untracked () =
  let t = Lifetime.create lt_config in
  (* The file's size is learned from attrs before any write: those
     blocks are live but uncountable. *)
  Lifetime.observe t (read_rec ~time:1050. ~offset:0 ~count:8192 ~size:65536 ~eof:false ());
  Lifetime.observe t (write_rec ~time:1100. ~offset:0 ~count:8192 ~size:65536 ());
  let r = Lifetime.result t in
  Alcotest.(check int) "rebirth counted" 1 r.births;
  Alcotest.(check int) "untracked death not counted" 0 r.deaths

let test_lifetime_phase2_deaths_only () =
  let t = Lifetime.create lt_config in
  Lifetime.observe t (write_rec ~time:1500. ~offset:0 ~count:8192 ~size:8192 ());
  (* Phase 2 write: kills the phase-1 block but its own birth is not
     recorded. *)
  Lifetime.observe t (write_rec ~time:2500. ~offset:0 ~count:8192 ~size:8192 ());
  Lifetime.observe t (write_rec ~time:2600. ~offset:0 ~count:8192 ~size:8192 ());
  let r = Lifetime.result t in
  Alcotest.(check int) "only phase-1 births" 1 r.births;
  Alcotest.(check int) "phase-1 block's death counted once" 1 r.deaths

let test_lifetime_end_surplus () =
  let t = Lifetime.create lt_config in
  Lifetime.observe t (write_rec ~time:1500. ~offset:0 ~count:8192 ~size:8192 ());
  let r = Lifetime.result t in
  Alcotest.(check int) "survivor in surplus" 1 r.end_surplus;
  Alcotest.(check (float 1e-6) "surplus pct") 100. r.end_surplus_pct

(* --- hourly --- *)

let test_hourly_bucketing () =
  let h = Hourly.create () in
  Hourly.observe h (read_rec ~time:(Tw.week_start +. 100.) ~offset:0 ~count:8192 ~size:8192 ~eof:true ());
  Hourly.observe h (read_rec ~time:(Tw.week_start +. 200.) ~offset:0 ~count:8192 ~size:8192 ~eof:true ());
  Hourly.observe h (write_rec ~time:(Tw.week_start +. 3700.) ~offset:0 ~count:100 ~size:100 ());
  match Hourly.series h with
  | [ p0; p1 ] ->
      Alcotest.(check int) "hour 0 reads" 2 p0.reads;
      Alcotest.(check int) "hour 1 writes" 1 p1.writes;
      Alcotest.(check (float 1e-6) "bytes") 16384. p0.bytes_read
  | other -> Alcotest.failf "expected 2 points, got %d" (List.length other)

let test_hourly_peak_variance () =
  let h = Hourly.create () in
  (* Constant 100 ops in each peak hour, noisy elsewhere. *)
  List.iter
    (fun day ->
      for hour = 0 to 23 do
        let n = if hour >= 9 && hour < 18 then 100 else 10 * (1 + (hour mod 3)) in
        for i = 1 to n do
          let time = Tw.time_of ~day ~hour ~minute:(i mod 60) in
          Hourly.observe h (record ~time (Ops.Getattr file_fh))
        done
      done)
    Tw.[ Mon; Tue ];
  let peak = Hourly.peak_hours h in
  Alcotest.(check (float 1e-6) "flat peak hours") 0. peak.total_ops_k.stddev_pct;
  Alcotest.(check bool) "all-hours vary" true ((Hourly.all_hours h).total_ops_k.stddev_pct > 0.)

(* --- names --- *)

let test_categorize () =
  let open Names in
  let cases =
    [
      (".inbox.lock", Lock); ("lock", Lock); (".inbox", Mailbox); ("mbox", Mailbox);
      ("saved-01", Mailbox); ("pine-tmp-0001-002", Mail_composer); (".pinerc", Dot_file);
      ("Applet_42_Extern", Applet); ("cache00af01", Browser_cache); ("#main.c#", Autosave);
      ("main.c~", Backup); ("main.c,v", Rcs_archive); ("main.c", Source); ("Makefile", Source);
      ("main.o", Object_file); ("run.log", Log_index); (".history", Log_index);
      ("dataset-1.dat", Dataset); ("ld-123.tmp", Temp_build); ("prog", Other);
    ]
  in
  List.iter
    (fun (name, expected) ->
      Alcotest.(check string) name (category_to_string expected) (category_to_string (categorize name)))
    cases

let test_names_lifecycle () =
  let n = Names.create () in
  (* create, write, delete a lock file. *)
  let lock_fh = Fh.make ~fsid:1 ~fileid:50 in
  Names.observe n
    (record ~time:1000.
       ~result:(Some (Ok (Ops.R_create { fh = Some lock_fh; attr = None })))
       (Ops.Create { dir = dir_fh; name = "x.lock"; mode = 0o600; exclusive = false }));
  Names.observe n
    (record ~time:1000.2 ~result:(Some (Ok Ops.R_empty)) (Ops.Remove { dir = dir_fh; name = "x.lock" }));
  Alcotest.(check int) "created+deleted" 1 (Names.created_deleted_total n);
  Alcotest.(check (float 1e-6) "all locks") 100. (Names.lock_created_deleted_pct n);
  Alcotest.(check (float 1e-6) "lifetime under 0.4s") 1.0 (Names.lock_lifetime_under n 0.4)

let test_names_byte_share_real () =
  let n = Names.create () in
  let inbox_fh = Fh.make ~fsid:1 ~fileid:60 in
  Names.observe n
    (record ~time:1.
       ~result:(Some (Ok (Ops.R_lookup { fh = inbox_fh; obj = None; dir = None })))
       (Ops.Lookup { dir = dir_fh; name = ".inbox" }));
  Names.observe n (read_rec ~fh:inbox_fh ~time:2. ~offset:0 ~count:8192 ~size:8192 ~eof:true ());
  Alcotest.(check (float 1e-6) "mailbox owns all bytes") 1.0 (Names.byte_share n Names.Mailbox)

let test_names_prediction () =
  let n = Names.create () in
  (* Ten locks spread over the window: identical behaviour -> perfect
     prediction. *)
  for i = 0 to 9 do
    let fh = Fh.make ~fsid:1 ~fileid:(100 + i) in
    let t0 = 1000. +. (float_of_int i *. 100.) in
    Names.observe n
      (record ~time:t0
         ~result:(Some (Ok (Ops.R_create { fh = Some fh; attr = None })))
         (Ops.Create { dir = dir_fh; name = Printf.sprintf "f%d.lock" i; mode = 0o600; exclusive = false }));
    Names.observe n
      (record ~time:(t0 +. 0.1) ~result:(Some (Ok Ops.R_empty))
         (Ops.Remove { dir = dir_fh; name = Printf.sprintf "f%d.lock" i }))
  done;
  let p = Names.predict n in
  Alcotest.(check bool) "tested some" true (p.tested > 0);
  Alcotest.(check (float 1e-6) "size predicted") 1.0 p.size_accuracy;
  Alcotest.(check (float 1e-6) "lifetime predicted") 1.0 p.lifetime_accuracy

(* --- nvram --- *)

module Nvram = Nt_analysis.Nvram

let nvram_cfg delay = { Nvram.capacity_bytes = 1 lsl 20; flush_delay = delay; block = 8192 }

let test_nvram_absorbs_fast_overwrite () =
  let t = Nvram.create (nvram_cfg 10.) in
  Nvram.observe t (write_rec ~time:100.0 ~offset:0 ~count:8192 ~size:8192 ());
  Nvram.observe t (write_rec ~time:100.5 ~offset:0 ~count:8192 ~size:8192 ());
  let r = Nvram.result t in
  Alcotest.(check int) "two versions" 2 r.block_writes;
  Alcotest.(check int) "first absorbed" 1 r.absorbed;
  Alcotest.(check int) "second flushed at end" 1 r.disk_writes

let test_nvram_flushes_after_delay () =
  let t = Nvram.create (nvram_cfg 10.) in
  Nvram.observe t (write_rec ~time:100. ~offset:0 ~count:8192 ~size:8192 ());
  (* Second write arrives after the flush deadline: no absorption. *)
  Nvram.observe t (write_rec ~time:200. ~offset:0 ~count:8192 ~size:8192 ());
  let r = Nvram.result t in
  Alcotest.(check int) "nothing absorbed" 0 r.absorbed;
  Alcotest.(check int) "both reach disk" 2 r.disk_writes

let test_nvram_remove_absorbs () =
  let t = Nvram.create (nvram_cfg 60.) in
  Nvram.observe t
    (record ~time:100.
       ~result:(Some (Ok (Ops.R_create { fh = Some file_fh; attr = None })))
       (Ops.Create { dir = dir_fh; name = "tmp"; mode = 0o600; exclusive = false }));
  Nvram.observe t (write_rec ~time:101. ~offset:0 ~count:16384 ~size:16384 ());
  Nvram.observe t
    (record ~time:102. ~result:(Some (Ok Ops.R_empty)) (Ops.Remove { dir = dir_fh; name = "tmp" }));
  let r = Nvram.result t in
  Alcotest.(check int) "deleted blocks absorbed" 2 r.absorbed;
  Alcotest.(check int) "nothing reaches disk" 0 r.disk_writes

let test_nvram_capacity_overflow () =
  (* 1 MB buffer = 128 blocks; write 256 distinct blocks quickly. *)
  let t = Nvram.create (nvram_cfg 3600.) in
  for b = 0 to 255 do
    Nvram.observe t (write_rec ~time:(100. +. float_of_int b) ~offset:(b * 8192) ~count:8192
                       ~size:((b + 1) * 8192) ())
  done;
  let r = Nvram.result t in
  Alcotest.(check bool) "overflow forced flushes" true (r.overflow_flushes > 0);
  Alcotest.(check int) "all versions accounted" 256 (r.absorbed + r.disk_writes)

(* --- hints --- *)

module Hints = Nt_analysis.Hints

let test_hints_classes () =
  Alcotest.(check bool) "tiny" true (Hints.size_class_of 100. = Hints.Tiny);
  Alcotest.(check bool) "large" true (Hints.size_class_of 2e6 = Hints.Large);
  Alcotest.(check bool) "subsecond" true (Hints.lifetime_class_of 0.2 = Hints.Subsecond);
  Alcotest.(check bool) "durable" true (Hints.lifetime_class_of 1e5 = Hints.Durable)

let test_hints_online_learning () =
  let h = Hints.create () in
  (* 20 lock files, all identical behaviour; the first is a cold start,
     the rest should be predicted correctly. *)
  for i = 0 to 19 do
    let fh = Fh.make ~fsid:1 ~fileid:(500 + i) in
    let name = Printf.sprintf "m%d.lock" i in
    let t0 = 1000. +. (float_of_int i *. 10.) in
    Hints.observe h
      (record ~time:t0
         ~result:(Some (Ok (Ops.R_create { fh = Some fh; attr = None })))
         (Ops.Create { dir = dir_fh; name; mode = 0o600; exclusive = false }));
    Hints.observe h
      (record ~time:(t0 +. 0.1) ~result:(Some (Ok Ops.R_empty))
         (Ops.Remove { dir = dir_fh; name }))
  done;
  let s = Hints.score h in
  Alcotest.(check int) "one cold start" 1 s.cold_creates;
  Alcotest.(check int) "19 predictions" 19 s.predictions;
  Alcotest.(check (float 1e-9) "size all correct") 1.0 (Hints.size_accuracy s);
  Alcotest.(check (float 1e-9) "lifetime all correct") 1.0 (Hints.lifetime_accuracy s)

let test_hints_never_peeks () =
  (* A category whose behaviour flips: the online learner must score
     worse than 100% (it predicts from the past only). *)
  let h = Hints.create () in
  for i = 0 to 9 do
    let fh = Fh.make ~fsid:1 ~fileid:(600 + i) in
    let name = Printf.sprintf "flip%d.tmp" i in
    let t0 = 1000. +. (float_of_int i *. 100.) in
    Hints.observe h
      (record ~time:t0
         ~result:(Some (Ok (Ops.R_create { fh = Some fh; attr = None })))
         (Ops.Create { dir = dir_fh; name; mode = 0o600; exclusive = false }));
    (* First half die instantly; second half live long. *)
    let death = if i < 5 then t0 +. 0.5 else t0 +. 90. in
    Hints.observe h
      (record ~time:death ~result:(Some (Ok Ops.R_empty)) (Ops.Remove { dir = dir_fh; name }))
  done;
  let s = Hints.score h in
  Alcotest.(check bool) "behaviour flip hurts accuracy" true
    (Hints.lifetime_accuracy s < 1.0)

(* --- summary --- *)

let test_summary_counts () =
  let s = Summary.create () in
  Summary.observe s (read_rec ~time:Tw.week_start ~offset:0 ~count:8192 ~size:8192 ~eof:true ());
  Summary.observe s (read_rec ~time:(Tw.week_start +. 10.) ~offset:0 ~count:8192 ~size:8192 ~eof:true ());
  Summary.observe s (write_rec ~time:(Tw.week_start +. 20.) ~offset:0 ~count:4096 ~size:4096 ());
  Summary.observe s (record (Ops.Getattr file_fh));
  Alcotest.(check int) "total" 4 (Summary.total_ops s);
  Alcotest.(check int) "reads" 2 (Summary.read_ops s);
  Alcotest.(check int) "writes" 1 (Summary.write_ops s);
  Alcotest.(check (float 1e-6) "bytes read") 16384. (Summary.bytes_read s);
  Alcotest.(check (float 1e-6) "rw op ratio") 2. (Summary.read_write_op_ratio s);
  Alcotest.(check (float 1e-6) "data ops pct") 75. (Summary.data_ops_pct s);
  Alcotest.(check int) "unique files" 1 (Summary.unique_files_accessed s)

let test_summary_daily_scaling () =
  let s = Summary.create () in
  (* 1000 reads over exactly one day. *)
  for i = 0 to 999 do
    Summary.observe s
      (read_rec
         ~time:(Tw.week_start +. (86400. *. float_of_int i /. 999.))
         ~offset:0 ~count:8192 ~size:8192 ~eof:true ())
  done;
  let d = Summary.daily ~scale:0.01 s in
  Alcotest.(check (float 1e-3) "rescaled to full population") 0.1 d.read_ops_m

let () =
  Alcotest.run "nt_analysis"
    [
      ( "io_log",
        [
          Alcotest.test_case "collects" `Quick test_io_log_collects;
          Alcotest.test_case "lost reply" `Quick test_io_log_lost_reply_uses_call;
          Alcotest.test_case "sort fixes swap" `Quick test_sort_window_fixes_swap;
          Alcotest.test_case "sort respects window" `Quick test_sort_window_respects_window;
          Alcotest.test_case "zero window identity" `Quick test_sort_window_zero_is_identity;
        ] );
      ( "runs",
        [
          Alcotest.test_case "split on eof" `Quick test_split_on_eof;
          Alcotest.test_case "split on gap" `Quick test_split_on_gap;
          Alcotest.test_case "contiguous" `Quick test_split_contiguous;
          Alcotest.test_case "sequential" `Quick test_classify_sequential;
          Alcotest.test_case "entire" `Quick test_classify_entire;
          Alcotest.test_case "random" `Quick test_classify_random;
          Alcotest.test_case "jump tolerance" `Quick test_classify_small_jump_tolerance;
          Alcotest.test_case "8k rounding" `Quick test_classify_rounding;
          Alcotest.test_case "singletons" `Quick test_classify_singleton;
          Alcotest.test_case "table3" `Quick test_table3_percentages;
          Alcotest.test_case "fig2 cumulative" `Quick test_by_file_size_cumulative;
        ] );
      ( "seqmetric",
        [
          Alcotest.test_case "sequential run" `Quick test_metric_sequential_run;
          Alcotest.test_case "alternating" `Quick test_metric_alternating;
          Alcotest.test_case "small jumps" `Quick test_metric_small_jumps;
          Alcotest.test_case "singleton" `Quick test_metric_singleton;
        ] );
      ( "reorder",
        [
          Alcotest.test_case "monotone swaps" `Quick test_swapped_monotone;
          Alcotest.test_case "knee" `Quick test_knee_detection;
        ] );
      ( "lifetime",
        [
          Alcotest.test_case "overwrite" `Quick test_lifetime_overwrite;
          Alcotest.test_case "truncate" `Quick test_lifetime_truncate;
          Alcotest.test_case "deletion" `Quick test_lifetime_deletion;
          Alcotest.test_case "rename kills target" `Quick test_lifetime_rename_kills_target;
          Alcotest.test_case "extension births" `Quick test_lifetime_extension_births;
          Alcotest.test_case "pre-existing untracked" `Quick test_lifetime_pre_existing_untracked;
          Alcotest.test_case "phase2 deaths only" `Quick test_lifetime_phase2_deaths_only;
          Alcotest.test_case "end surplus" `Quick test_lifetime_end_surplus;
        ] );
      ( "hourly",
        [
          Alcotest.test_case "bucketing" `Quick test_hourly_bucketing;
          Alcotest.test_case "peak variance" `Quick test_hourly_peak_variance;
        ] );
      ( "names",
        [
          Alcotest.test_case "categorize" `Quick test_categorize;
          Alcotest.test_case "lifecycle" `Quick test_names_lifecycle;
          Alcotest.test_case "byte share" `Quick test_names_byte_share_real;
          Alcotest.test_case "prediction" `Quick test_names_prediction;
        ] );
      ( "nvram",
        [
          Alcotest.test_case "absorbs fast overwrite" `Quick test_nvram_absorbs_fast_overwrite;
          Alcotest.test_case "flushes after delay" `Quick test_nvram_flushes_after_delay;
          Alcotest.test_case "remove absorbs" `Quick test_nvram_remove_absorbs;
          Alcotest.test_case "capacity overflow" `Quick test_nvram_capacity_overflow;
        ] );
      ( "hints",
        [
          Alcotest.test_case "class boundaries" `Quick test_hints_classes;
          Alcotest.test_case "online learning" `Quick test_hints_online_learning;
          Alcotest.test_case "never peeks ahead" `Quick test_hints_never_peeks;
        ] );
      ( "summary",
        [
          Alcotest.test_case "counts" `Quick test_summary_counts;
          Alcotest.test_case "daily scaling" `Quick test_summary_daily_scaling;
        ] );
    ]
