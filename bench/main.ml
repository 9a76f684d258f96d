(* Benchmark harness: regenerates every table and figure of "Passive
   NFS Tracing of Email and Research Workloads" (FAST 2003) from the
   synthetic CAMPUS / EECS simulations, printing measured values next
   to the paper's.

   Usage:
     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- LIST    # subset, e.g. table3 fig1 obs

   Experiments: table1 table2 table3 table4 table5 fig1 fig2 fig3 fig4
   fig5 nfsiod names readahead nvram blockcache hints capture degraded,
   then three gates that exit 1 when their bound fails: obs (nt_obs
   overhead), mon (nfsmon soak) and scale (RSS flatness). Their sizes
   come from NT_OBS_BENCH_RECORDS, NT_MON_BENCH_RECORDS and
   NT_SCALE_BENCH_MULTS; a malformed value exits 2. Per-layer and
   end-to-end throughput lives in perfbench/. *)

module Tw = Nt_util.Trace_week

module Tables = struct
  include Nt_util.Tables

  (* Rendering stays in the library; only the harness owns stdout. *)
  let print ?title ~header rows = print_string (render ?title ~header rows)
end
module Summary = Nt_analysis.Summary
module Hourly = Nt_analysis.Hourly
module Runs = Nt_analysis.Runs
module Reorder = Nt_analysis.Reorder
module Lifetime = Nt_analysis.Lifetime
module Names = Nt_analysis.Names
module Prior = Nt_analysis.Prior_studies
module Pipeline = Nt_core.Pipeline
module Report = Nt_par.Report

let scale = 0.01 (* both workloads run at 1/100 of the paper's population *)

let f2 = Tables.fmt_float ~decimals:2

(* Tables whose rows share their first column, side by side. *)
let beside = function
  | [] -> []
  | first :: _ as tables ->
      List.mapi
        (fun i row -> List.hd row :: List.concat_map (fun t -> List.tl (List.nth t i)) tables)
        first

(* ------------------------------------------------------------------ *)
(* Shared week-long simulations                                        *)
(* ------------------------------------------------------------------ *)

(* One simulation teed into three reports: the trace week, with the
   reorder window chosen for the system (seconds), the lifetimes over
   the whole run, and Figure 1's Wednesday 9am-12pm. *)
type week = {
  label : string;
  week : Report.values;
  lifetime : Report.phases;
  reorder : Reorder.t;
}

let get = Option.get

let simulate_week ~label ~window ~simulate =
  let t0 = Unix.gettimeofday () in
  let week =
    Report.start ~window ~sections:[ `Daily; `Variance; `Names; `Sizes; `Rawruns ] ()
  in
  let lifetime = Report.start ~sections:[ `Lifetime ] () in
  let reorder = Report.start ~sections:[ `Reorder ] () in
  let wed9 = Tw.time_of ~day:Tw.Wed ~hour:9 ~minute:0 in
  let wed12 = Tw.time_of ~day:Tw.Wed ~hour:12 ~minute:0 in
  let sink r =
    let t = r.Nt_trace.Record.time in
    Report.push lifetime r;
    if t < Tw.week_end then begin
      Report.push week r;
      if t >= wed9 && t < wed12 then Report.push reorder r
    end
  in
  (* Friday's 24h phase + 24h end margin runs to Sunday 9am, so the
     simulation extends half a day past the analysed trace week. *)
  let stop = Tw.week_end +. (12. *. 3600.) in
  simulate ~start:Tw.week_start ~stop ~sink;
  let _, records, week = Report.finish week in
  let _, _, lifetime = Report.finish lifetime in
  let _, _, reorder = Report.finish reorder in
  Printf.eprintf "[sim] %s week: %d records, %.1fs\n%!" label records
    (Unix.gettimeofday () -. t0);
  { label; week; lifetime = get lifetime.lifetime; reorder = get reorder.reorder }
[@@nt.raise_ok "each report was started with the sections whose folds are read"]

let campus_week =
  lazy
    (simulate_week ~label:"CAMPUS" ~window:0.010 ~simulate:(fun ~start ~stop ~sink ->
         ignore (Pipeline.simulate_campus ~start ~stop ~sink ())))

let eecs_week =
  lazy
    (simulate_week ~label:"EECS" ~window:0.005 ~simulate:(fun ~start ~stop ~sink ->
         ignore (Pipeline.simulate_eecs ~start ~stop ~sink ())))

let both () = [ Lazy.force campus_week; Lazy.force eecs_week ]
let summary w = get w.week.summary
let hourly w = get w.week.hourly
let names_of w = get w.week.names
let runs w = get w.week.runs
let raw_runs w = get w.week.raw_runs

let banner title = Printf.printf "\n================ %s ================\n" title

(* ------------------------------------------------------------------ *)
(* Table 1: qualitative characteristics                                *)
(* ------------------------------------------------------------------ *)

let table1 () =
  banner "Table 1: Characteristics of CAMPUS and EECS";
  let campus = Lazy.force campus_week and eecs = Lazy.force eecs_week in
  let row name f = [ name; f campus; f eecs ] in
  let lifetime_median w =
    match List.find_opt (fun (_, frac) -> frac >= 0.5) (Report.lifetime_cdf w.lifetime) with
    | Some (edge, _) -> edge
    | None -> infinity
  in
  let death_mode w =
    let avg = Report.phase_mean w.lifetime in
    Printf.sprintf "overwrite %.0f%% / deletion %.0f%%"
      (avg (fun (r : Lifetime.result) -> r.deaths_overwrite_pct))
      (avg (fun (r : Lifetime.result) -> r.deaths_deletion_pct))
  in
  Tables.print
    ~header:[ "characteristic"; "CAMPUS (measured)"; "EECS (measured)" ]
    [
      row "data calls (% of all)" (fun w -> Tables.fmt_pct (Summary.data_ops_pct (summary w)));
      row "R/W op ratio" (fun w -> f2 (Summary.read_write_op_ratio (summary w)));
      row "R/W byte ratio" (fun w -> f2 (Summary.read_write_byte_ratio (summary w)));
      row "peak-hours variance shrink" (fun w ->
          Printf.sprintf "%.1fx" (Hourly.variance_reduction (hourly w)));
      row "mailbox byte share" (fun w ->
          Tables.fmt_pct (100. *. Names.byte_share (names_of w) Names.Mailbox));
      row "locks among files accessed" (fun w ->
          Tables.fmt_pct (100. *. Names.unique_file_share (names_of w) Names.Lock));
      row "median block lifetime" (fun w -> Tables.fmt_duration (lifetime_median w));
      row "dominant block death" death_mode;
    ];
  print_newline ();
  print_endline
    "Paper: CAMPUS data-dominated / EECS metadata-dominated; CAMPUS reads 3x writes /\n\
     EECS writes 1.4x reads; CAMPUS peak load tracks day-of-week; 95+% of CAMPUS data\n\
     from mailboxes; ~50% of CAMPUS files are locks; CAMPUS blocks live >=10 min, die\n\
     by overwrite; EECS blocks mostly die <1s, mixed overwrite/deletion."

(* ------------------------------------------------------------------ *)
(* Table 2: average daily activity                                     *)
(* ------------------------------------------------------------------ *)

let table2 () =
  banner "Table 2: average daily activity (10/21-10/27, rescaled by 1/scale)";
  let measured =
    List.map (fun w -> (w.label ^ " (sim)", Summary.daily ~scale (summary w))) (both ())
  in
  let paper =
    [ Prior.campus_week; Prior.eecs_week ] @ Prior.table2_comparisons
    |> List.map (fun (p : Prior.daily_activity) ->
           ( p.label ^ " (paper)",
             {
               Summary.total_ops_m = p.total_ops_m;
               data_read_gb = p.data_read_gb;
               read_ops_m = p.read_ops_m;
               data_written_gb = p.data_written_gb;
               write_ops_m = p.write_ops_m;
               rw_byte_ratio = p.rw_byte_ratio;
               rw_op_ratio = p.rw_op_ratio;
             } ))
  in
  Tables.print ~header:("system" :: Report.daily_header)
    (List.map (fun (label, d) -> label :: Report.daily_row d) (measured @ paper))

(* ------------------------------------------------------------------ *)
(* Figure 1: reorder window vs swapped accesses                        *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  banner "Figure 1: % of accesses swapped vs reorder window (Wed 9am-12pm)";
  let ws = both () in
  Tables.print
    ~header:("window (ms)" :: List.map (fun w -> w.label ^ " swapped %") ws)
    (beside (List.map (fun w -> (Report.reorder_table w.reorder).rows) ws));
  List.iter
    (fun w ->
      Printf.printf "%s knee: %.0f ms (paper chose %s)\n" w.label
        (Reorder.knee (Reorder.swapped w.reorder))
        (if w.label = "CAMPUS" then "10 ms" else "5 ms"))
    ws

(* ------------------------------------------------------------------ *)
(* Table 3: run patterns                                               *)
(* ------------------------------------------------------------------ *)

let table3 () =
  banner "Table 3: file access patterns (entire/sequential/random)";
  let of_paper (p : Prior.run_breakdown) : Runs.table3 =
    {
      reads_pct = p.reads_pct;
      writes_pct = p.writes_pct;
      rw_pct = p.rw_pct;
      read = { entire_pct = p.read_entire; sequential_pct = p.read_seq; random_pct = p.read_random };
      write =
        { entire_pct = p.write_entire; sequential_pct = p.write_seq; random_pct = p.write_random };
      rw = { entire_pct = p.rw_entire; sequential_pct = p.rw_seq; random_pct = p.rw_random };
      total_runs = 0;
    }
  in
  List.iter
    (fun w ->
      let raw = Runs.table3 ~strict:true (raw_runs w) in
      let paper_raw, paper_proc =
        if w.label = "CAMPUS" then (Prior.campus_runs_raw, Prior.campus_runs_processed)
        else (Prior.eecs_runs_raw, Prior.eecs_runs_processed)
      in
      Printf.printf "\n--- %s (%d runs) ---\n" w.label raw.total_runs;
      Tables.print
        ~header:[ "pattern"; "sim raw"; "sim processed"; "paper raw"; "paper processed" ]
        (beside
           (List.map Report.table3_rows
              [ raw; Runs.table3 (runs w); of_paper paper_raw; of_paper paper_proc ])))
    (both ());
  Printf.printf
    "\nHistorical comparisons (paper Table 3): NT reads %.1f%%, Sprite %.1f%%, BSD %.1f%%\n"
    Prior.nt_runs.reads_pct Prior.sprite_runs.reads_pct Prior.bsd_runs.reads_pct

(* ------------------------------------------------------------------ *)
(* Figure 2: bytes accessed vs file size                               *)
(* ------------------------------------------------------------------ *)

let print_per_system table =
  List.iter
    (fun w ->
      Printf.printf "\n--- %s ---\n" w.label;
      let t : Report.table = table w in
      Tables.print ~header:t.header t.rows)
    (both ())

let fig2 () =
  banner "Figure 2: cumulative % of bytes accessed vs file size";
  print_per_system (fun w -> Report.sizes_table (runs w));
  print_endline
    "\nPaper: CAMPUS bytes come overwhelmingly from files >1MB; EECS mostly from files\n\
     <1MB with ~30% of bytes in large entirely-read files; random + entire dominate."

(* ------------------------------------------------------------------ *)
(* Table 4 and Figure 3: block lifetimes                               *)
(* ------------------------------------------------------------------ *)

let table4 () =
  banner "Table 4: daily block life statistics (weekday 24h phases + 24h margin)";
  List.iter
    (fun w ->
      let paper =
        if w.label = "CAMPUS" then Prior.campus_block_life else Prior.eecs_block_life
      in
      Printf.printf "\n--- %s ---\n" w.label;
      Tables.print
        ~header:[ "statistic"; "sim"; "paper" ]
        (beside
           [
             (Report.lifetime_table ~scale w.lifetime).rows;
             [
               [ ""; Printf.sprintf "%.1fM" paper.births_m ];
               [ ""; Tables.fmt_pct paper.births_write_pct ];
               [ ""; Tables.fmt_pct paper.births_extension_pct ];
               [ ""; Printf.sprintf "%.1fM" paper.deaths_m ];
               [ ""; Tables.fmt_pct paper.deaths_overwrite_pct ];
               [ ""; Tables.fmt_pct paper.deaths_truncate_pct ];
               [ ""; Tables.fmt_pct paper.deaths_deletion_pct ];
               [ ""; (if w.label = "CAMPUS" then "2.1%-5.9%" else "3.5%-9.5%") ];
             ];
           ]))
    (both ())

let fig3 () =
  banner "Figure 3: cumulative distribution of block lifetimes";
  let campus = Lazy.force campus_week and eecs = Lazy.force eecs_week in
  Tables.print ~header:[ "lifetime <="; "CAMPUS"; "EECS" ]
    (beside (List.map (fun w -> (Report.cdf_table w.lifetime).rows) [ campus; eecs ]));
  let cdf w = Report.cdf_value (Report.lifetime_cdf w.lifetime) in
  Printf.printf
    "\nPaper: EECS >50%% of blocks die within 1 s; CAMPUS few die <1 s, ~50%% live\n\
     10-15+ min with a knee near 10 min.\n";
  Printf.printf "Sim: EECS <=1s %.0f%%; CAMPUS <=1s %.0f%%, <=10min %.0f%%, <=1day %.0f%%\n"
    (100. *. cdf eecs 1.)
    (100. *. cdf campus 1.)
    (100. *. cdf campus 600.)
    (100. *. cdf campus 86400.)

(* ------------------------------------------------------------------ *)
(* Figure 4 and Table 5: hourly behaviour                              *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  banner "Figure 4: hourly operation counts and R/W ratios (trace week)";
  List.iter
    (fun w ->
      Printf.printf "\n--- %s: hourly ops (thousands) ---\n" w.label;
      let points = Array.of_list (Hourly.series (hourly w)) in
      let day_names = [| "Sun"; "Mon"; "Tue"; "Wed"; "Thu"; "Fri"; "Sat" |] in
      for day = 0 to 6 do
        let cells =
          List.init 24 (fun h ->
              let idx = (day * 24) + h in
              if idx < Array.length points then
                Printf.sprintf "%6.1f" (float_of_int points.(idx).Hourly.ops /. 1000.)
              else "     -")
        in
        Printf.printf "%s %s\n" day_names.(day) (String.concat "" cells)
      done;
      Printf.printf "--- %s: hourly read:write op ratio ---\n" w.label;
      for day = 0 to 6 do
        let cells =
          List.init 24 (fun h ->
              let idx = (day * 24) + h in
              if idx < Array.length points then
                Printf.sprintf "%6.1f" (Hourly.rw_ratio points.(idx))
              else "     -")
        in
        Printf.printf "%s %s\n" day_names.(day) (String.concat "" cells)
      done)
    (both ());
  print_endline
    "\nPaper: CAMPUS shows a strong weekday 9am-6pm cycle; EECS is noisier with\n\
     off-peak spikes; R/W ratio is steady at peak and spikes off-peak."

let table5 () =
  banner "Table 5: average hourly activity, all hours vs peak (9am-6pm Mon-Fri)";
  List.iter
    (fun w ->
      Printf.printf "\n--- %s (mean, stddev as %% of mean) ---\n" w.label;
      let t = Report.variance_table (hourly w) in
      Tables.print ~header:t.header t.rows;
      Printf.printf "variance reduction at peak: %.1fx (paper: >=4x for CAMPUS)\n"
        (Hourly.variance_reduction (hourly w)))
    (both ())

(* ------------------------------------------------------------------ *)
(* Figure 5: sequentiality metric                                      *)
(* ------------------------------------------------------------------ *)

let fig5 () =
  banner "Figure 5: sequentiality metric vs bytes accessed per run";
  print_per_system (fun w -> Report.seqmetric_table (runs w));
  print_endline
    "\nPaper: long CAMPUS reads are highly sequential (metric near 1); long writes\n\
     hover near 0.6 with c=10; EECS writes are seek-prone; small jumps (c=10 vs\n\
     c=1) lift the metric substantially."

(* ------------------------------------------------------------------ *)
(* nfsiod reordering experiment (section 4.1.5)                        *)
(* ------------------------------------------------------------------ *)

let nfsiod () =
  banner "Section 4.1.5: nfsiod count vs observed reordering (isolated client/server)";
  let rows =
    List.map
      (fun k ->
        let server = Nt_sim.Server.create ~fsid:9 ~ip:(Nt_net.Ip_addr.v 10 9 0 1) () in
        let fs = Nt_sim.Server.fs server in
        let root = Nt_sim.Sim_fs.root fs in
        let node =
          Nt_sim.Sim_fs.create_file fs ~time:0. ~parent:root ~name:"big.dat" ~mode:0o644 ~uid:0
            ~gid:0
        in
        Nt_sim.Sim_fs.write fs ~time:0. node ~offset:0L ~count:(64 * 1024 * 1024);
        let report = Report.start ~sections:[ `Reorder ] () in
        let max_delay = ref 0. in
        let last = ref neg_infinity in
        (* The monitor sees packets in wire-time order, so sort the
           emitted records the way the main pipeline does. *)
        let sorter = Nt_sim.Record_sorter.create (Report.push report) in
        let sink r =
          Nt_sim.Record_sorter.push sorter r;
          let t = r.Nt_trace.Record.time in
          if t < !last then max_delay := Float.max !max_delay (!last -. t);
          if t > !last then last := t
        in
        let cfg =
          { (Nt_sim.Client.default_config ~ip:(Nt_net.Ip_addr.v 10 9 0 2) ~version:3) with
            nfsiods = k }
        in
        let client =
          Nt_sim.Client.create cfg ~server ~sink
            ~rng:(Nt_util.Prng.create (Int64.of_int (100 + k)))
        in
        let s = Nt_sim.Client.session client ~time:1000. ~uid:0 ~gid:0 in
        (match Nt_sim.Client.lookup_path s [ "big.dat" ] with
        | Some fh -> ignore (Nt_sim.Client.read_whole s fh)
        | None -> ());
        Nt_sim.Record_sorter.flush sorter;
        let _, _, v = Report.finish report in
        let ooo = 100. *. Reorder.out_of_order (get v.reorder) in
        [ string_of_int k; f2 ooo; Printf.sprintf "%.3f s" !max_delay ])
      [ 1; 2; 4; 8; 16 ]
  in
  Tables.print ~header:[ "nfsiods"; "% out-of-order"; "max delay" ] rows;
  print_endline
    "Paper: one nfsiod -> no reordering; more nfsiods -> up to ~10% of packets\n\
     reordered, with delays up to 1 second."

(* ------------------------------------------------------------------ *)
(* Section 6.3: names predict attributes                               *)
(* ------------------------------------------------------------------ *)

let names () =
  banner "Section 6.3: predicting file attributes from names";
  List.iter
    (fun w ->
      let n = names_of w in
      Printf.printf "\n--- %s ---\n" w.label;
      Printf.printf
        "files created+deleted in week: %d; locks among them: %.1f%% (paper: 96%% CAMPUS / 8%% EECS)\n"
        (Names.created_deleted_total n)
        (Names.lock_created_deleted_pct n);
      let pct v = if Float.is_nan v then "-" else Tables.fmt_pct (100. *. v) in
      Printf.printf "lock lifetimes < 0.40s: %s (paper: 99.9%%)\n"
        (pct (Names.lock_lifetime_under n 0.40));
      Printf.printf "composer files <= 8KB: %s (paper: 98%%); <= 40KB: %s (paper: 99.9%%)\n"
        (pct (Names.composer_size_under n 8192.))
        (pct (Names.composer_size_under n 40960.));
      Printf.printf "composer lifetimes < 1 min: %s (paper: 45%%)\n"
        (pct (Names.composer_lifetime_under n 60.));
      let rows =
        List.map
          (fun (cat, (s : Names.category_stats)) ->
            [
              Names.category_to_string cat;
              string_of_int s.files_seen;
              string_of_int s.created_deleted;
              Tables.fmt_bytes s.median_size;
              (if Float.is_nan s.median_lifetime then "-"
               else Tables.fmt_duration s.median_lifetime);
              Tables.fmt_pct s.read_only_pct;
              Tables.fmt_pct s.write_only_pct;
            ])
          (Names.stats n)
      in
      Tables.print
        ~header:
          [ "category"; "files"; "created+deleted"; "median size"; "median life"; "read-only";
            "write-only" ]
        rows;
      let p = Names.predict n in
      Printf.printf
        "prediction (train 1st half / test 2nd half, %d files): size %.1f%%, lifetime %.1f%%, pattern %.1f%%\n"
        p.tested (100. *. p.size_accuracy)
        (100. *. p.lifetime_accuracy)
        (100. *. p.pattern_accuracy))
    (both ())

(* ------------------------------------------------------------------ *)
(* Section 6.4: read-ahead heuristic experiment                        *)
(* ------------------------------------------------------------------ *)

let readahead () =
  banner "Section 6.4: sequentiality-metric read-ahead vs fragile heuristic";
  let module Ra = Nt_sim.Readahead in
  let fractions = [ 0.0; 0.05; 0.10; 0.15; 0.20 ] in
  let rows =
    List.map
      (fun frac ->
        let fragile = Ra.run ~reorder_fraction:frac Ra.Fragile in
        let metric = Ra.run ~reorder_fraction:frac Ra.Metric in
        let none = Ra.run ~reorder_fraction:frac Ra.No_readahead in
        [
          Tables.fmt_pct (100. *. frac);
          Printf.sprintf "%d" fragile.reordered;
          Printf.sprintf "%.3f s" none.total_time;
          Printf.sprintf "%.3f s" fragile.total_time;
          Printf.sprintf "%.3f s" metric.total_time;
          Tables.fmt_pct (Ra.speedup ~baseline:fragile metric);
        ])
      fractions
  in
  Tables.print
    ~header:
      [ "reordered"; "ooo reqs"; "no readahead"; "fragile"; "seq-metric"; "metric vs fragile" ]
    rows;
  print_endline
    "Paper: with ~10% of requests reordered, the sequentiality-metric heuristic\n\
     improved large sequential transfers by more than 5% end to end."

(* ------------------------------------------------------------------ *)
(* Capture path validation (sections 2, 4.1.4)                         *)
(* ------------------------------------------------------------------ *)

let capture () =
  banner "Capture path: workload -> packets -> pcap -> tracer -> records";
  let start = Tw.time_of ~day:Tw.Wed ~hour:9 ~minute:0 in
  let stop = start +. 7200. in
  let run label ~loss ~pcap_of =
    let buf = Buffer.create (64 * 1024 * 1024) in
    let writer = Nt_net.Pcap.writer_to_buffer buf in
    let stats : Pipeline.pcap_stats = pcap_of ~writer in
    let cap_stats, records = Pipeline.capture_pcap (Buffer.contents buf) in
    Printf.printf "\n--- %s (2h, monitor loss %.0f%%) ---\n" label (100. *. loss);
    Printf.printf "simulated records: %d; packets written: %d; dropped at monitor: %d\n"
      stats.run.records stats.packets_written stats.packets_dropped;
    Printf.printf "capture: %s\n" (Nt_trace.Capture.stats_to_string cap_stats);
    Printf.printf "records recovered: %d (%.1f%% of simulated)\n" (List.length records)
      (100. *. float_of_int (List.length records) /. float_of_int (max 1 stats.run.records));
    let s = Summary.create () in
    List.iter (Summary.observe s) records;
    Printf.printf "recovered R/W op ratio: %.2f; data read %s; written %s\n"
      (Summary.read_write_op_ratio s)
      (Tables.fmt_bytes (Summary.bytes_read s))
      (Tables.fmt_bytes (Summary.bytes_written s))
  in
  let campus_cfg = { Nt_workload.Email.default_config with users = 30 } in
  run "CAMPUS (NFSv3/TCP jumbo)" ~loss:0.03 ~pcap_of:(fun ~writer ->
      Pipeline.campus_to_pcap ~config:campus_cfg ~fault:(Nt_sim.Fault.bernoulli_loss 0.03) ~start
        ~stop ~writer ());
  let eecs_cfg = { Nt_workload.Research.default_config with users = 20 } in
  run "EECS (NFSv2+v3/UDP)" ~loss:0.0 ~pcap_of:(fun ~writer ->
      Pipeline.eecs_to_pcap ~config:eecs_cfg ~start ~stop ~writer ());
  print_endline
    "\nPaper 4.1.4: the CAMPUS mirror port lost up to ~10% of packets under load;\n\
     losing a call loses its reply too (orphan replies are undecodable)."

(* ------------------------------------------------------------------ *)
(* Degraded vs clean capture (section 4.1.4 differential)             *)
(* ------------------------------------------------------------------ *)

let degraded () =
  banner "Degraded vs clean capture (section 4.1.4 differential)";
  let start = Tw.time_of ~day:Tw.Wed ~hour:9 ~minute:0 in
  let stop = start +. 3600. in
  let show label (d : Pipeline.degraded_run) =
    Printf.printf "\n--- %s (1h, plan: campus_burst) ---\n" label;
    Printf.printf "injected: %s\n" (Nt_sim.Fault.counts_to_string d.faults);
    Printf.printf "clean:    %s\n" (Nt_trace.Capture.stats_to_string d.clean);
    Printf.printf "degraded: %s\n" (Nt_trace.Capture.stats_to_string d.degraded);
    let clean_n = List.length d.clean_records in
    let degraded_n = List.length d.degraded_records in
    Printf.printf "records: clean %d, degraded %d (%.1f%% recovered)\n" clean_n degraded_n
      (100. *. float_of_int degraded_n /. float_of_int (max 1 clean_n));
    let ratio records =
      let s = Summary.create () in
      List.iter (Summary.observe s) records;
      Summary.read_write_op_ratio s
    in
    let cr = ratio d.clean_records and dr = ratio d.degraded_records in
    Printf.printf "R/W op ratio: clean %.2f, degraded %.2f (drift %+.1f%%)\n" cr dr
      (100. *. ((dr /. cr) -. 1.))
  in
  let campus_cfg = { Nt_workload.Email.default_config with users = 30 } in
  show "CAMPUS (TCP)"
    (Pipeline.campus_degraded ~config:campus_cfg ~plan:Nt_sim.Fault.campus_burst ~start ~stop ());
  let eecs_cfg = { Nt_workload.Research.default_config with users = 20 } in
  show "EECS (UDP)"
    (Pipeline.eecs_degraded ~config:eecs_cfg ~plan:Nt_sim.Fault.campus_burst ~start ~stop ());
  print_endline
    "\nPaper 4.1.4: bursty mirror-port loss biases analyses only slightly; the\n\
     differential run quantifies that bias instead of assuming it."

(* ------------------------------------------------------------------ *)
(* Gates: what perfbench does not measure                              *)
(* ------------------------------------------------------------------ *)

(* A gate's size from the environment: comma-separated positive
   integers ([many]) or exactly one, [default] when unset. Anything
   else exits 2 naming the variable, so a typo cannot silently resize
   the run. *)
let env_ints ?(many = false) name default =
  match Sys.getenv_opt name with
  | None -> default
  | Some s -> (
      let positive p =
        match int_of_string_opt (String.trim p) with Some n when n > 0 -> Some n | _ -> None
      in
      let parts = List.map positive (String.split_on_char ',' s) in
      match List.filter_map Fun.id parts with
      | ns when List.length ns = List.length parts && (many || List.length ns = 1) -> ns
      | _ ->
          Printf.eprintf "bench: %s=%S: want %s\n" name s
            (if many then "comma-separated positive integers" else "one positive integer");
          exit 2)

let env_count name default = List.hd (env_ints name [ default ])

(* Shared synthetic lint workload: a pool of live handles, each
   introduced by one LOOKUP then hit with alternating reads and writes.
   The obs gate lints it and the mon gate feeds it to the monitor. *)
let lint_stream n : Nt_trace.Record.t Seq.t =
  let module Ops = Nt_nfs.Ops in
  let module Types = Nt_nfs.Types in
  let pool = 10_000 (* live file handles rotating through the stream *) in
  let per_file = 8 (* one LOOKUP introduces each handle, then 7 I/Os *) in
  let dir = Nt_nfs.Fh.make ~fsid:1 ~fileid:1 in
  let fhs = Array.init pool (fun i -> Nt_nfs.Fh.make ~fsid:1 ~fileid:(100 + i)) in
  let attr = { Types.default_fattr with size = 1_073_741_824L } in
  let record i : Nt_trace.Record.t =
    let time = 1000. +. (1e-4 *. float_of_int i) in
    let file = i / per_file mod pool in
    let fh = fhs.(file) in
    let call, result =
      if i mod per_file = 0 then
        ( Ops.Lookup { dir; name = Printf.sprintf "f%05d" file },
          Ops.R_lookup { fh; obj = Some attr; dir = None } )
      else if i land 1 = 0 then
        let offset = Int64.of_int (8192 * (i mod 64)) in
        (Ops.Read { fh; offset; count = 8192 }, Ops.R_read { attr = Some attr; count = 8192; eof = false })
      else
        let offset = Int64.of_int (8192 * (i mod 64)) in
        (Ops.Write { fh; offset; count = 8192; stable = Types.File_sync },
         Ops.R_write { attr = Some attr; count = 8192; committed = Types.File_sync })
    in
    {
      time;
      reply_time = Some (time +. 0.0005);
      client = Nt_net.Ip_addr.v 10 1 0 (20 + (i mod 4));
      server = Nt_net.Ip_addr.v 10 1 1 2;
      version = 3;
      xid = i land 0xFFFFFFFF;
      uid = 1042;
      gid = 100;
      call;
      result = Some (Ok result);
    }
  in
  Seq.init n record

(* ------------------------------------------------------------------ *)
(* nt_obs overhead gate: instrumented vs disabled vs compiled-out      *)
(* ------------------------------------------------------------------ *)

let obs_overhead () =
  banner "nt_obs overhead: lint workload instrumented vs disabled vs compiled-out";
  let module Obs = Nt_obs.Obs in
  (* Smoke mode for CI: NT_OBS_BENCH_RECORDS shrinks the stream. *)
  let n = env_count "NT_OBS_BENCH_RECORDS" 1_000_000 in
  let cfg = Nt_lint.Engine.default_config in
  (* Best of 3 per variant; reading the tally forces the settle so the
     deferred protocol checks land inside the timed region. The lint
     engine's default registry is Obs.null, so the no-registry run is
     the compiled-out analog: instrumentation reduced to dead branches.
     The enabled arm carries the full v2 telemetry load — resource
     sampler ticked per record plus an attached trace timeline — so the
     5% budget covers everything a --trace-out production run pays. *)
  let run_once make_obs =
    let obs, tick = make_obs () in
    let stream =
      match tick with
      | None -> lint_stream n
      | Some f ->
          Seq.map
            (fun r ->
              f ();
              r)
            (lint_stream n)
    in
    (* Level the heap before every timed run so major-GC phase luck
       doesn't land on one variant and not its pair. *)
    Gc.compact ();
    let t0 = Unix.gettimeofday () in
    let engine =
      match obs with
      | None -> Nt_lint.Engine.run cfg stream
      | Some o -> Nt_lint.Engine.run ~obs:o cfg stream
    in
    ignore (Nt_lint.Engine.tally engine);
    Unix.gettimeofday () -. t0
  in
  let make_compiled_out () = (None, None) in
  let make_disabled () = (Some (Obs.create ~enabled:false ()), None) in
  let make_enabled () =
    let obs = Obs.create () in
    let tl = Nt_obs.Timeline.create () in
    Nt_obs.Timeline.attach tl obs;
    let sampler = Nt_obs.Sampler.create ~interval:0.25 obs in
    (Some obs, Some (fun () -> Nt_obs.Sampler.tick sampler))
  in
  (* Rounds interleave the variants rather than timing each one's
     best-of block back to back: a systemic slow phase on a shared
     machine then lands on all three instead of poisoning one. The
     gate statistic is the median over rounds of the per-round
     enabled/disabled ratio — pairing cancels round-level machine
     drift, and the median (unlike min-of-N) is not inflated by one
     lucky-fast baseline run, which is the difference between a 5%
     gate and a coin flip. *)
  let variants = [| make_compiled_out; make_disabled; make_enabled |] in
  let rounds = if n < 1_000_000 then 7 else 5 in
  let times = Array.make_matrix 3 rounds 0.0 in
  ignore (run_once make_compiled_out : float);
  for r = 0 to rounds - 1 do
    Array.iteri (fun i make -> times.(i).(r) <- run_once make) variants
  done;
  let median a =
    let s = Array.copy a in
    Array.sort compare s;
    s.(Array.length s / 2)
  in
  let ratio num den = median (Array.init rounds (fun r -> num.(r) /. den.(r))) in
  let compiled_out = median times.(0)
  and disabled = median times.(1)
  and enabled = median times.(2) in
  let rate t = float_of_int n /. t in
  let enabled_vs_disabled = 100. *. (ratio times.(2) times.(1) -. 1.) in
  let disabled_vs_compiled = 100. *. (ratio times.(1) times.(0) -. 1.) in
  let pass = enabled_vs_disabled <= 5.0 in
  Tables.print
    ~header:[ "variant"; "time (s)"; "records/s"; "overhead" ]
    [
      [ "compiled-out (Obs.null default)"; f2 compiled_out;
        Printf.sprintf "%.0f" (rate compiled_out); "-" ];
      [ "registry disabled"; f2 disabled; Printf.sprintf "%.0f" (rate disabled);
        Printf.sprintf "%+.1f%% vs compiled-out" disabled_vs_compiled ];
      [ "registry enabled"; f2 enabled; Printf.sprintf "%.0f" (rate enabled);
        Printf.sprintf "%+.1f%% vs disabled" enabled_vs_disabled ];
    ];
  Printf.printf "\nenabled-vs-disabled overhead: %+.1f%% (budget <= 5%%): %s\n"
    enabled_vs_disabled
    (if pass then "PASS" else "FAIL");
  if not pass then exit 1

(* ------------------------------------------------------------------ *)
(* nfsmon endurance soak: bounded memory over a multi-day feed         *)
(* ------------------------------------------------------------------ *)

let mon_soak () =
  banner "nfsmon soak: bounded windows, eviction, and conservation over days of feed";
  let module Obs = Nt_obs.Obs in
  let module Service = Nt_mon.Service in
  let module Feed = Nt_mon.Feed in
  let module Ring = Nt_mon.Ring in
  let module Win = Nt_mon.Win in
  (* Smoke mode for CI: NT_MON_BENCH_RECORDS shrinks the stream. *)
  let n = env_count "NT_MON_BENCH_RECORDS" 1_000_000 in
  (* Re-time the shared lint workload across three simulated days and
     fan it out over far more clients and uids than the per-window caps
     admit, so the soak proves eviction instead of merely not needing
     it. *)
  let span = 3. *. 86400. in
  let records =
    lint_stream n
    |> Seq.mapi (fun i (r : Nt_trace.Record.t) ->
           let time = 1000. +. (span *. float_of_int i /. float_of_int n) in
           {
             r with
             time;
             reply_time = Some (time +. 0.0005);
             client = Nt_net.Ip_addr.v 10 (i land 3) (i / 4 mod 256) (1 + (i mod 251));
             uid = i mod 1000;
           })
  in
  let caps = { Win.client_cap = 64; uid_cap = 64; fs_cap = 16; proc_cap = 32 } in
  let config =
    {
      Service.default_config with
      ring = { Ring.window_s = 600.; windows = 6; caps; summary_cap = caps };
      report_every = 12;
      json = true;
      checkpoint_path = None;
    }
  in
  let obs = Obs.create () in
  let reports = ref 0 in
  let svc =
    Service.create ~obs
      ~sleep:(fun _ -> ())
      ~emit:(fun _ -> incr reports)
      config
      (Feed.of_records records)
  in
  let t0 = Unix.gettimeofday () in
  let warm = ref None in
  (* Each gated probe runs a full major cycle and reads the live words
     it leaves, which is the state the service retains. The heap size
     is not that: OCaml 5.1's Gc.compact does not compact, so
     heap_words after it still moves with where heap chunks happened to
     be allocated (the ratio moved 1.154-1.197x with the length of
     argv[0]). The heap words, read through the service's resource
     sampler, are shown beside the live words but not gated. The warm
     probe sits at the halfway point — smoke-sized streams are not yet
     past ring warm-up at a quarter, and flat-over-the-back-half is the
     same boundedness claim. *)
  let probe () =
    Gc.full_major ();
    let live = (Gc.stat ()).Gc.live_words in
    (live, Nt_obs.Sampler.sample_now (Service.sampler svc))
  in
  let rec loop () =
    match Service.step svc with
    | `Continue ->
        if Option.is_none !warm && Service.observed svc >= n / 2 then warm := Some (probe ());
        loop ()
    | `Stopped -> ()
  in
  loop ();
  Service.shutdown svc;
  let dt = Unix.gettimeofday () -. t0 in
  let end_live, end_smp = probe () in
  let warm_live, warm_smp = Option.value !warm ~default:(end_live, end_smp) in
  (* Footprint honesty gate: the per-component state estimates must be
     non-trivial and within 2x of the gated end-of-run live words — an
     estimator that drifts past the heap it claims to describe is
     lying. *)
  let footprints = Nt_obs.Sampler.publish_footprints (Service.sampler svc) in
  let fp_words =
    List.fold_left (fun acc (_, fp) -> acc + fp.Nt_obs.Footprint.words) 0 footprints
  in
  let fp_ok = fp_words > 0 && fp_words <= 2 * end_live in
  let evictions =
    List.fold_left (fun acc (_, e) -> acc + e) 0 (Ring.evictions (Service.ring svc))
  in
  let conserved =
    match Service.conservation svc with Ok () -> true | Error _ -> false
  in
  (* "Flat peak RSS": the major heap must stop growing once the ring,
     caps, and queue are warm — halfway in is generously past warm-up,
     so the end-of-run live heap may exceed it only slightly. *)
  let growth_budget = 1.20 in
  let heap_flat = float_of_int end_live <= growth_budget *. float_of_int warm_live in
  let pass = heap_flat && evictions > 0 && conserved && !reports > 0 && fp_ok in
  Tables.print
    ~header:[ "statistic"; "value" ]
    [
      [ "records"; string_of_int (Service.observed svc) ];
      [ "wall time"; Printf.sprintf "%.2f s" dt ];
      [ "throughput"; Printf.sprintf "%.0f records/s" (float_of_int n /. dt) ];
      [ "reports emitted"; string_of_int !reports ];
      [ "rotations"; string_of_int (Ring.rotations (Service.ring svc)) ];
      [ "table evictions"; string_of_int evictions ];
      [ "shed"; string_of_int (Service.shed svc) ];
      [ "live words at 50% (gated)"; string_of_int warm_live ];
      [ "live words at end (gated)"; string_of_int end_live ];
      [ "heap words at 50%"; string_of_int warm_smp.Nt_obs.Sampler.heap_words ];
      [ "heap words at end"; string_of_int end_smp.Nt_obs.Sampler.heap_words ];
      [ "peak heap ever (words)"; string_of_int end_smp.Nt_obs.Sampler.top_heap_words ];
      [ "state footprint (words)"; string_of_int fp_words ];
      [ "peak RSS (bytes)"; string_of_int end_smp.Nt_obs.Sampler.rss_hwm_bytes ];
    ];
  Printf.printf
    "\nlive heap flat (end <= %.2fx warm): %s; evictions > 0: %s; conservation: %s;\n\
     footprint sum within 2x of live heap (%d <= 2 * %d): %s\n"
    growth_budget
    (if heap_flat then "PASS" else "FAIL")
    (if evictions > 0 then "PASS" else "FAIL")
    (if conserved then "PASS" else "FAIL")
    fp_words end_live
    (if fp_ok then "PASS" else "FAIL");
  if not pass then exit 1

(* ------------------------------------------------------------------ *)
(* Scale gate: user-count sweep through nfsstats' tbin path            *)
(* ------------------------------------------------------------------ *)

(* Simulate CAMPUS at growing user counts, stream every record through
   a tbin Writer to disk (no pcap, no in-memory trace), then read the
   .ntb back through Pipeline.analyze_trace at one range, the entry
   point nfsstats runs. Peak RSS must stay flat while the record volume
   grows 16x (100x locally via NT_SCALE_BENCH_MULTS), and read+analyze
   throughput must not sag.

   The sweep runs in ascending order on purpose: VmHWM is monotone over
   a process's life, so with flat per-step memory the high-water mark
   set by the smallest run survives the largest, and the last/first
   ratio gates real growth rather than allocator noise. *)

type scale_row = {
  mult : int;
  users : int;
  records : int;
  bytes : int;
  gen_s : float;
  an_s : float;  (* the median of the step's three reads *)
  hwm : int;  (* the process's peak RSS after this step, bytes *)
}

let scale () =
  banner "nt_tbin scale: CAMPUS user sweep through nfsstats' tbin path";
  let mults = List.sort compare (env_ints ~many:true "NT_SCALE_BENCH_MULTS" [ 1; 4; 16 ]) in
  let base_users = 12 and hours = 24 in
  let sampler = Nt_obs.Sampler.create Nt_obs.Obs.null in
  let start = Tw.time_of ~day:Tw.Mon ~hour:0 ~minute:0 in
  let stop = start +. (3600. *. float_of_int hours) in
  let step mult =
    let users = base_users * mult in
    let config = { Nt_workload.Email.default_config with users } in
    let path = Filename.temp_file "nt_scale" ".ntb" in
    (* generate -> tbin on disk, streaming; nothing is materialized.
       The simulator legitimately holds O(users) mailbox/session state,
       which is not what this gate measures, so generation runs in a
       forked child: the parent's RSS high-water mark tracks only the
       out-of-core reader path. *)
    let t0 = Unix.gettimeofday () in
    flush stdout;
    flush stderr;
    (match Unix.fork () with
    | 0 ->
        let code =
          try
            let oc = open_out_bin path in
            let w = Nt_tbin.Writer.create (output_string oc) in
            ignore
              (Pipeline.simulate_campus ~config ~start ~stop
                 ~sink:(Nt_tbin.Writer.add w) ()
                : Pipeline.run_stats);
            Nt_tbin.Writer.close w;
            close_out oc;
            0
          with _ -> 1
        in
        (* the child must not replay the parent's at_exit work *)
        Unix._exit code
    | pid -> (
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> ()
        | _ ->
            Printf.eprintf "scale: generator child failed at %dx\n" mult;
            exit 1));
    let gen_s = Unix.gettimeofday () -. t0 in
    let bytes = (Unix.stat path).Unix.st_size in
    let read () =
      Gc.compact ();
      let t1 = Unix.gettimeofday () in
      let _report, records, src =
        Pipeline.analyze_trace ~jobs:1 ~sections:[ `Summary; `Hourly; `Runs ] path
      in
      let an_s = Unix.gettimeofday () -. t1 in
      (match src.Pipeline.tbin with
      | Some stats when Nt_tbin.failures stats <> 0 ->
          Printf.eprintf "scale: decode failures at %dx: %s\n" mult
            (Nt_tbin.stats_to_string stats);
          exit 1
      | Some stats when records = stats.Nt_tbin.records -> ()
      | Some stats ->
          Printf.eprintf "scale: analyzed %d of %d decoded records at %dx\n" records
            stats.Nt_tbin.records mult;
          exit 1
      | None ->
          Printf.eprintf "scale: %s did not read as tbin at %dx\n" path mult;
          exit 1);
      (records, an_s)
    in
    (* one read at 1x takes 50-90 ms, short enough for a scheduling
       hiccup to sink the records/s floor: the step's time is the
       median of three reads of the same file *)
    let reads = List.init 3 (fun _ -> read ()) in
    Sys.remove path;
    let records = fst (List.hd reads) in
    let an_s = List.nth (List.sort Float.compare (List.map snd reads)) 1 in
    Gc.compact ();
    let hwm = (Nt_obs.Sampler.sample_now sampler).Nt_obs.Sampler.rss_hwm_bytes in
    { mult; users; records; bytes; gen_s; an_s; hwm }
  in
  (* one unmeasured pass at the smallest multiple levels allocator
     pools and chunk buffers, so the first measured high-water mark is
     a steady state rather than a cold start *)
  ignore (step (List.hd mults) : scale_row);
  let rows = List.map step mults in
  let rps row = float_of_int row.records /. Float.max 1e-9 row.an_s in
  Tables.print
    ~header:
      [ "users"; "records"; "tbin bytes"; "gen (s)"; "decode+report (s)";
        "records/s"; "peak RSS" ]
    (List.map
       (fun row ->
         [
           string_of_int row.users;
           string_of_int row.records;
           Tables.fmt_bytes (float_of_int row.bytes);
           f2 row.gen_s;
           f2 row.an_s;
           Printf.sprintf "%.0f" (rps row);
           Tables.fmt_bytes (float_of_int row.hwm);
         ])
       rows);
  let first = List.hd rows and last = List.hd (List.rev rows) in
  let rss_growth = float_of_int last.hwm /. Float.max 1. (float_of_int first.hwm) in
  let rates = List.map rps rows in
  let min_rps = List.fold_left Float.min infinity rates in
  let max_rps = List.fold_left Float.max 0. rates in
  let rss_ok = rss_growth <= 1.2 in
  let rps_ok = min_rps >= 0.8 *. max_rps in
  Printf.printf
    "\npeak RSS growth across %dx more users: %.3fx (budget <= 1.2x): %s\n"
    (last.mult / first.mult) rss_growth
    (if rss_ok then "PASS" else "FAIL");
  Printf.printf "records/s floor: %.0f >= 0.8 * %.0f max: %s\n" min_rps max_rps
    (if rps_ok then "PASS" else "FAIL");
  if not (rss_ok && rps_ok) then exit 1

(* ------------------------------------------------------------------ *)
(* Ablations: the paper's quantified conjectures (sections 6.1, 6.1.2  *)
(* and 7)                                                              *)
(* ------------------------------------------------------------------ *)

(* "Mechanisms for delaying writes, such as NVRAM, would improve
   performance for both the CAMPUS and EECS workloads." *)
let nvram () =
  banner "Ablation: NVRAM delayed writes (paper sections 6.1 / 7)";
  let day = Tw.time_of ~day:Tw.Wed ~hour:0 ~minute:0 in
  let delays = [ 1.; 10.; 60.; 600.; 1800. ] in
  let run_system label simulate =
    let buffers =
      List.map
        (fun delay ->
          ( delay,
            Nt_analysis.Nvram.create
              { capacity_bytes = 256 * 1024 * 1024; flush_delay = delay; block = 8192 } ))
        delays
    in
    simulate ~sink:(fun r -> List.iter (fun (_, b) -> Nt_analysis.Nvram.observe b r) buffers);
    Printf.printf "\n--- %s (1 day, 256 MB buffer) ---\n" label;
    Tables.print
      ~header:[ "flush delay"; "block writes"; "absorbed"; "reach disk"; "absorbed %" ]
      (List.map
         (fun (delay, b) ->
           let r = Nt_analysis.Nvram.result b in
           [
             Tables.fmt_duration delay;
             string_of_int r.block_writes;
             string_of_int r.absorbed;
             string_of_int r.disk_writes;
             Tables.fmt_pct r.absorbed_pct;
           ])
         buffers)
  in
  run_system "CAMPUS" (fun ~sink ->
      ignore (Pipeline.simulate_campus ~start:day ~stop:(day +. 86400.) ~sink ()));
  run_system "EECS" (fun ~sink ->
      ignore (Pipeline.simulate_eecs ~start:day ~stop:(day +. 86400.) ~sink ()));
  print_endline
    "\nPaper: many blocks do not live long enough to need writing — especially EECS\n\
     data blocks (most die <1s) — so delayed writes absorb much of the write load;\n\
     CAMPUS needs mail-session-scale delays (10+ min) before absorption pays off."

(* "We speculate that if client caching of mailboxes was done on a
   block or message basis instead of a file basis, the amount of data
   read per day would shrink to a fraction of the current size." *)
let blockcache () =
  banner "Ablation: block-granularity mailbox caching (paper section 6.1.2)";
  let day = Tw.time_of ~day:Tw.Wed ~hour:0 ~minute:0 in
  let run label config =
    let s = Summary.create () in
    ignore
      (Pipeline.simulate_campus ~config ~start:day ~stop:(day +. 86400.)
         ~sink:(Summary.observe s) ());
    (label, s)
  in
  let file_based = run "file-granularity (reality)" Nt_workload.Email.default_config in
  let block_based =
    run "block-granularity (counterfactual)"
      { Nt_workload.Email.default_config with file_based_caching = false }
  in
  Tables.print
    ~header:[ "caching model"; "data read"; "read ops"; "total ops" ]
    (List.map
       (fun (label, s) ->
         [
           label;
           Tables.fmt_bytes (Summary.bytes_read s);
           string_of_int (Summary.read_ops s);
           string_of_int (Summary.total_ops s);
         ])
       [ file_based; block_based ]);
  let frac =
    Summary.bytes_read (snd block_based) /. Float.max 1. (Summary.bytes_read (snd file_based))
  in
  Printf.printf
    "\nblock-granularity caching reads %.1f%% of the file-granularity volume\n\
     (paper: \"would shrink to a fraction of the current size\").\n"
    (100. *. frac)

(* Section 7's open question: can a file system learn the name ->
   attribute correlation online, and how much state does it take? *)
let hints () =
  banner "Ablation: online filename-hint learning (paper sections 6.3 / 7)";
  let day = Tw.time_of ~day:Tw.Mon ~hour:0 ~minute:0 in
  let run label simulate =
    let h = Nt_analysis.Hints.create () in
    simulate ~sink:(Nt_analysis.Hints.observe h);
    let s = Nt_analysis.Hints.score h in
    Printf.printf "\n--- %s (2 simulated days) ---\n" label;
    Printf.printf "creates seen: %d (of which %d cold-start, no history)\n"
      (s.predictions + s.cold_creates) s.cold_creates;
    Printf.printf "size-class predictions: %d scored, %.1f%% correct\n" s.size_scored
      (100. *. Nt_analysis.Hints.size_accuracy s);
    Printf.printf "lifetime-class predictions: %d scored, %.1f%% correct\n" s.lifetime_scored
      (100. *. Nt_analysis.Hints.lifetime_accuracy s);
    Printf.printf "model state: %d categories of class counters\n" s.model_categories
  in
  run "CAMPUS" (fun ~sink ->
      ignore (Pipeline.simulate_campus ~start:day ~stop:(day +. 172800.) ~sink ()));
  run "EECS" (fun ~sink ->
      ignore (Pipeline.simulate_eecs ~start:day ~stop:(day +. 172800.) ~sink ()));
  print_endline
    "\nPaper: \"the file system has, at the time of file creation, reliable and\n\
     potentially useful information to guide its decisions\" — and the model\n\
     needed to exploit it is a handful of counters per name category."

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("table1", table1);
    ("table2", table2);
    ("fig1", fig1);
    ("table3", table3);
    ("fig2", fig2);
    ("table4", table4);
    ("fig3", fig3);
    ("fig4", fig4);
    ("table5", table5);
    ("fig5", fig5);
    ("nfsiod", nfsiod);
    ("names", names);
    ("readahead", readahead);
    ("nvram", nvram);
    ("blockcache", blockcache);
    ("hints", hints);
    ("capture", capture);
    ("degraded", degraded);
    ("obs", obs_overhead);
    ("mon", mon_soak);
    ("scale", scale);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as picks) -> picks
    | _ -> List.map fst experiments
  in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown experiment %S; known: %s\n" name
            (String.concat " " (List.map fst experiments));
          exit 1)
    requested
