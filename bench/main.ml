(* Benchmark harness: regenerates every table and figure of "Passive
   NFS Tracing of Email and Research Workloads" (FAST 2003) from the
   synthetic CAMPUS / EECS simulations, printing measured values next
   to the paper's.

   Usage:
     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- LIST    # subset, e.g. table3 fig1 micro

   Experiments: table1 table2 table3 table4 table5 fig1 fig2 fig3 fig4
   fig5 nfsiod names readahead nvram blockcache hints capture faultperf
   degraded lint obs micro *)

module Tw = Nt_util.Trace_week

module Tables = struct
  include Nt_util.Tables

  (* Rendering stays in the library; only the harness owns stdout. *)
  let print ?title ~header rows = print_string (render ?title ~header rows)
end
module Summary = Nt_analysis.Summary
module Hourly = Nt_analysis.Hourly
module Io_log = Nt_analysis.Io_log
module Runs = Nt_analysis.Runs
module Seqmetric = Nt_analysis.Seqmetric
module Reorder = Nt_analysis.Reorder
module Lifetime = Nt_analysis.Lifetime
module Names = Nt_analysis.Names
module Prior = Nt_analysis.Prior_studies
module Pipeline = Nt_core.Pipeline
module Json = Nt_obs.Obs.Json

(* Every BENCH_*.json report: one JSON document on one line. *)
let write_report path doc =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Json.to_string doc);
      output_char oc '\n');
  print_endline ("wrote " ^ path)

let scale = 0.01 (* both workloads run at 1/100 of the paper's population *)

let f1 = Tables.fmt_float ~decimals:1
let f2 = Tables.fmt_float ~decimals:2

(* ------------------------------------------------------------------ *)
(* Shared week-long simulations                                        *)
(* ------------------------------------------------------------------ *)

type week = {
  label : string;
  summary : Summary.t;
  hourly : Hourly.t;
  io : Io_log.t;  (* full trace week *)
  io_fig1 : Io_log.t;  (* Wednesday 9am-12pm, as in Figure 1 *)
  names : Names.t;
  lifetimes : Lifetime.t array;  (* weekday 9am phases, Mon-Fri *)
  records : int;
  window : float;  (* reorder window chosen for this system, seconds *)
}

let weekdays = Tw.[ Mon; Tue; Wed; Thu; Fri ]

let simulate_week ~label ~window ~simulate =
  let summary = Summary.create () in
  let hourly = Hourly.create () in
  let io = Io_log.create () in
  let io_fig1 = Io_log.create () in
  let names = Names.create () in
  let lifetimes =
    Array.of_list
      (List.map
         (fun day ->
           Lifetime.create (Lifetime.config ~phase1_start:(Tw.time_of ~day ~hour:9 ~minute:0)))
         weekdays)
  in
  let wed9 = Tw.time_of ~day:Tw.Wed ~hour:9 ~minute:0 in
  let wed12 = Tw.time_of ~day:Tw.Wed ~hour:12 ~minute:0 in
  let records = ref 0 in
  let sink r =
    let t = r.Nt_trace.Record.time in
    Array.iter (fun lt -> Lifetime.observe lt r) lifetimes;
    if t < Tw.week_end then begin
      incr records;
      Summary.observe summary r;
      Hourly.observe hourly r;
      Io_log.observe io r;
      Names.observe names r;
      if t >= wed9 && t < wed12 then Io_log.observe io_fig1 r
    end
  in
  (* Friday's 24h phase + 24h end margin runs to Sunday 9am, so the
     simulation extends half a day past the analysed trace week. *)
  let stop = Tw.week_end +. (12. *. 3600.) in
  simulate ~start:Tw.week_start ~stop ~sink;
  { label; summary; hourly; io; io_fig1; names; lifetimes; records = !records; window }

let campus_week =
  lazy
    (let t0 = Unix.gettimeofday () in
     let w =
       simulate_week ~label:"CAMPUS" ~window:0.010 ~simulate:(fun ~start ~stop ~sink ->
           ignore (Pipeline.simulate_campus ~start ~stop ~sink ()))
     in
     Printf.eprintf "[sim] CAMPUS week: %d records, %.1fs\n%!" w.records
       (Unix.gettimeofday () -. t0);
     w)

let eecs_week =
  lazy
    (let t0 = Unix.gettimeofday () in
     let w =
       simulate_week ~label:"EECS" ~window:0.005 ~simulate:(fun ~start ~stop ~sink ->
           ignore (Pipeline.simulate_eecs ~start ~stop ~sink ()))
     in
     Printf.eprintf "[sim] EECS week: %d records, %.1fs\n%!" w.records
       (Unix.gettimeofday () -. t0);
     w)

let both () = [ Lazy.force campus_week; Lazy.force eecs_week ]

let banner title = Printf.printf "\n================ %s ================\n" title

(* ------------------------------------------------------------------ *)
(* Table 1: qualitative characteristics                                *)
(* ------------------------------------------------------------------ *)

let lifetime_results w = Array.to_list (Array.map Lifetime.result w.lifetimes)

let merged_cdf results =
  let total = List.fold_left (fun acc (r : Lifetime.result) -> acc + r.deaths) 0 results in
  match results with
  | [] -> []
  | first :: _ ->
      List.map
        (fun (edge, _) ->
          let frac =
            if total = 0 then 0.
            else
              List.fold_left
                (fun acc (r : Lifetime.result) ->
                  acc +. (Lifetime.cdf_at r edge *. float_of_int r.deaths))
                0. results
              /. float_of_int total
          in
          (edge, frac))
        first.lifetime_cdf

let cdf_value cdf x =
  let rec go last = function
    | [] -> last
    | (e, f) :: rest -> if e > x then last else go f rest
  in
  go 0. cdf

let table1 () =
  banner "Table 1: Characteristics of CAMPUS and EECS";
  let campus = Lazy.force campus_week and eecs = Lazy.force eecs_week in
  let row name f = [ name; f campus; f eecs ] in
  let lifetime_median w =
    let cdf = merged_cdf (lifetime_results w) in
    match List.find_opt (fun (_, frac) -> frac >= 0.5) cdf with
    | Some (edge, _) -> edge
    | None -> infinity
  in
  let death_mode w =
    let results = lifetime_results w in
    let avg f = List.fold_left (fun acc r -> acc +. f r) 0. results /. 5. in
    Printf.sprintf "overwrite %.0f%% / deletion %.0f%%"
      (avg (fun (r : Lifetime.result) -> r.deaths_overwrite_pct))
      (avg (fun (r : Lifetime.result) -> r.deaths_deletion_pct))
  in
  Tables.print
    ~header:[ "characteristic"; "CAMPUS (measured)"; "EECS (measured)" ]
    [
      row "data calls (% of all)" (fun w -> Tables.fmt_pct (Summary.data_ops_pct w.summary));
      row "R/W op ratio" (fun w -> f2 (Summary.read_write_op_ratio w.summary));
      row "R/W byte ratio" (fun w -> f2 (Summary.read_write_byte_ratio w.summary));
      row "peak-hours variance shrink" (fun w ->
          Printf.sprintf "%.1fx" (Hourly.variance_reduction w.hourly));
      row "mailbox byte share" (fun w ->
          Tables.fmt_pct (100. *. Names.byte_share w.names Names.Mailbox));
      row "locks among files accessed" (fun w ->
          Tables.fmt_pct (100. *. Names.unique_file_share w.names Names.Lock));
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
    List.map
      (fun w ->
        let d = Summary.daily ~scale w.summary in
        (w.label ^ " (sim)", d))
      (both ())
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
  let rows =
    List.map
      (fun (label, (d : Summary.daily)) ->
        [
          label;
          f2 d.total_ops_m;
          f1 d.data_read_gb;
          f2 d.read_ops_m;
          f1 d.data_written_gb;
          f2 d.write_ops_m;
          f2 d.rw_byte_ratio;
          f2 d.rw_op_ratio;
        ])
      (measured @ paper)
  in
  Tables.print
    ~header:
      [ "system"; "ops (M)"; "read GB"; "read ops M"; "write GB"; "write ops M"; "R/W bytes";
        "R/W ops" ]
    rows

(* ------------------------------------------------------------------ *)
(* Figure 1: reorder window vs swapped accesses                        *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  banner "Figure 1: % of accesses swapped vs reorder window (Wed 9am-12pm)";
  let windows = [ 0.; 1.; 2.; 3.; 5.; 7.; 10.; 15.; 20.; 30.; 40.; 50. ] in
  let results =
    List.map (fun w -> (w.label, Reorder.swap_percentages w.io_fig1 ~windows_ms:windows)) (both ())
  in
  let header = "window (ms)" :: List.map (fun (l, _) -> l ^ " swapped %") results in
  let rows =
    List.map
      (fun wms ->
        Printf.sprintf "%.0f" wms
        :: List.map
             (fun (_, points) ->
               match List.assoc_opt wms points with Some p -> f2 p | None -> "-")
             results)
      windows
  in
  Tables.print ~header rows;
  List.iter
    (fun (label, points) ->
      Printf.printf "%s knee: %.0f ms (paper chose %s)\n" label (Reorder.knee points)
        (if label = "CAMPUS" then "10 ms" else "5 ms"))
    results

(* ------------------------------------------------------------------ *)
(* Table 3: run patterns                                               *)
(* ------------------------------------------------------------------ *)

let table3 () =
  banner "Table 3: file access patterns (entire/sequential/random)";
  let breakdown_rows (t : Runs.table3) =
    [
      ("reads (% total)", t.reads_pct);
      ("  entire (% read)", t.read.entire_pct);
      ("  sequential (% read)", t.read.sequential_pct);
      ("  random (% read)", t.read.random_pct);
      ("writes (% total)", t.writes_pct);
      ("  entire (% write)", t.write.entire_pct);
      ("  sequential (% write)", t.write.sequential_pct);
      ("  random (% write)", t.write.random_pct);
      ("read-write (% total)", t.rw_pct);
      ("  random (% r-w)", t.rw.random_pct);
    ]
  in
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
      let raw = Runs.table3 (Runs.analyze ~window:0. ~jump_blocks:1 w.io) in
      let processed = Runs.table3 (Runs.analyze ~window:w.window ~jump_blocks:10 w.io) in
      let paper_raw, paper_proc =
        if w.label = "CAMPUS" then (Prior.campus_runs_raw, Prior.campus_runs_processed)
        else (Prior.eecs_runs_raw, Prior.eecs_runs_processed)
      in
      Printf.printf "\n--- %s (%d runs) ---\n" w.label raw.total_runs;
      let cols =
        [ breakdown_rows raw; breakdown_rows processed; breakdown_rows (of_paper paper_raw);
          breakdown_rows (of_paper paper_proc) ]
      in
      let rows =
        List.mapi
          (fun i (name, _) ->
            name :: List.map (fun col -> f1 (snd (List.nth col i))) cols)
          (List.hd cols)
      in
      Tables.print
        ~header:[ "pattern"; "sim raw"; "sim processed"; "paper raw"; "paper processed" ]
        rows)
    (both ());
  Printf.printf
    "\nHistorical comparisons (paper Table 3): NT reads %.1f%%, Sprite %.1f%%, BSD %.1f%%\n"
    Prior.nt_runs.reads_pct Prior.sprite_runs.reads_pct Prior.bsd_runs.reads_pct

(* ------------------------------------------------------------------ *)
(* Figure 2: bytes accessed vs file size                               *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  banner "Figure 2: cumulative % of bytes accessed vs file size";
  List.iter
    (fun w ->
      let runs = Runs.analyze ~window:w.window ~jump_blocks:10 w.io in
      let c = Runs.by_file_size runs in
      Printf.printf "\n--- %s ---\n" w.label;
      let rows =
        Array.to_list
          (Array.mapi
             (fun i edge ->
               [
                 Tables.fmt_bytes edge;
                 f1 c.total.(i);
                 f1 c.entire.(i);
                 f1 c.sequential.(i);
                 f1 c.random.(i);
               ])
             c.edges)
      in
      Tables.print ~header:[ "file size <="; "total %"; "entire %"; "sequential %"; "random %" ]
        rows)
    (both ());
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
      let results = lifetime_results w in
      let avg f = List.fold_left (fun acc r -> acc +. f r) 0. results /. 5. in
      let total f = List.fold_left (fun acc r -> acc + f r) 0 results in
      let paper =
        if w.label = "CAMPUS" then Prior.campus_block_life else Prior.eecs_block_life
      in
      Printf.printf "\n--- %s ---\n" w.label;
      Tables.print
        ~header:[ "statistic"; "sim"; "paper" ]
        [
          [ "total births (5 days)";
            Printf.sprintf "%d (%.2fM rescaled)"
              (total (fun r -> r.Lifetime.births))
              (float_of_int (total (fun r -> r.Lifetime.births)) /. scale /. 1e6);
            Printf.sprintf "%.1fM" paper.births_m ];
          [ "  due to writes";
            Tables.fmt_pct (avg (fun r -> r.Lifetime.births_write_pct));
            Tables.fmt_pct paper.births_write_pct ];
          [ "  due to extension";
            Tables.fmt_pct (avg (fun r -> r.Lifetime.births_extension_pct));
            Tables.fmt_pct paper.births_extension_pct ];
          [ "total deaths (5 days)";
            Printf.sprintf "%d (%.2fM rescaled)"
              (total (fun r -> r.Lifetime.deaths))
              (float_of_int (total (fun r -> r.Lifetime.deaths)) /. scale /. 1e6);
            Printf.sprintf "%.1fM" paper.deaths_m ];
          [ "  due to overwrites";
            Tables.fmt_pct (avg (fun r -> r.Lifetime.deaths_overwrite_pct));
            Tables.fmt_pct paper.deaths_overwrite_pct ];
          [ "  due to truncates";
            Tables.fmt_pct (avg (fun r -> r.Lifetime.deaths_truncate_pct));
            Tables.fmt_pct paper.deaths_truncate_pct ];
          [ "  due to file deletion";
            Tables.fmt_pct (avg (fun r -> r.Lifetime.deaths_deletion_pct));
            Tables.fmt_pct paper.deaths_deletion_pct ];
          [ "daily end surplus";
            Tables.fmt_pct (avg (fun r -> r.Lifetime.end_surplus_pct));
            (if w.label = "CAMPUS" then "2.1%-5.9%" else "3.5%-9.5%") ];
        ])
    (both ())

let fig3 () =
  banner "Figure 3: cumulative distribution of block lifetimes";
  let campus = merged_cdf (lifetime_results (Lazy.force campus_week)) in
  let eecs = merged_cdf (lifetime_results (Lazy.force eecs_week)) in
  let interesting =
    [ 1.; 10.; 30.; 60.; 300.; 600.; 1200.; 3600.; 14400.; 43200.; 86400. ]
  in
  let rows =
    List.map
      (fun x ->
        [ Tables.fmt_duration x;
          Tables.fmt_pct (100. *. cdf_value campus x);
          Tables.fmt_pct (100. *. cdf_value eecs x) ])
      interesting
  in
  Tables.print ~header:[ "lifetime <="; "CAMPUS"; "EECS" ] rows;
  Printf.printf
    "\nPaper: EECS >50%% of blocks die within 1 s; CAMPUS few die <1 s, ~50%% live\n\
     10-15+ min with a knee near 10 min.\n";
  Printf.printf "Sim: EECS <=1s %.0f%%; CAMPUS <=1s %.0f%%, <=10min %.0f%%, <=1day %.0f%%\n"
    (100. *. cdf_value eecs 1.)
    (100. *. cdf_value campus 1.)
    (100. *. cdf_value campus 600.)
    (100. *. cdf_value campus 86400.)

(* ------------------------------------------------------------------ *)
(* Figure 4 and Table 5: hourly behaviour                              *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  banner "Figure 4: hourly operation counts and R/W ratios (trace week)";
  List.iter
    (fun w ->
      Printf.printf "\n--- %s: hourly ops (thousands) ---\n" w.label;
      let points = Array.of_list (Hourly.series w.hourly) in
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
      let all = Hourly.all_hours w.hourly in
      let peak = Hourly.peak_hours w.hourly in
      let row name (a : Hourly.variance_row) (p : Hourly.variance_row) =
        [ name;
          Printf.sprintf "%s (%.0f%%)" (f1 a.mean) a.stddev_pct;
          Printf.sprintf "%s (%.0f%%)" (f1 p.mean) p.stddev_pct ]
      in
      Printf.printf "\n--- %s (mean, stddev as %% of mean) ---\n" w.label;
      Tables.print
        ~header:[ "statistic"; "all hours"; "peak hours" ]
        [
          row "total ops (1000s)" all.total_ops_k peak.total_ops_k;
          row "data read (MB)" all.data_read_mb peak.data_read_mb;
          row "read ops (1000s)" all.read_ops_k peak.read_ops_k;
          row "data written (MB)" all.data_written_mb peak.data_written_mb;
          row "write ops (1000s)" all.write_ops_k peak.write_ops_k;
          row "R/W op ratio" all.rw_op_ratio peak.rw_op_ratio;
        ];
      Printf.printf "variance reduction at peak: %.1fx (paper: >=4x for CAMPUS)\n"
        (Hourly.variance_reduction w.hourly))
    (both ())

(* ------------------------------------------------------------------ *)
(* Figure 5: sequentiality metric                                      *)
(* ------------------------------------------------------------------ *)

let fig5 () =
  banner "Figure 5: sequentiality metric vs bytes accessed per run";
  List.iter
    (fun w ->
      let c = Seqmetric.analyze ~window:w.window w.io in
      Printf.printf "\n--- %s ---\n" w.label;
      let cell v = if Float.is_nan v then "-" else f2 v in
      let rows =
        Array.to_list
          (Array.mapi
             (fun i edge ->
               [
                 Tables.fmt_bytes edge;
                 cell c.read_allowed.(i);
                 cell c.read_strict.(i);
                 cell c.write_allowed.(i);
                 cell c.write_strict.(i);
                 f1 c.cum_total_runs.(i);
                 f1 c.cum_read_runs.(i);
                 f1 c.cum_write_runs.(i);
               ])
             c.bucket_edges)
      in
      Tables.print
        ~header:
          [ "run bytes <="; "rd c=10"; "rd c=1"; "wr c=10"; "wr c=1"; "cum runs %"; "cum rd %";
            "cum wr %" ]
        rows)
    (both ());
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
        let io = Io_log.create () in
        let max_delay = ref 0. in
        let last = ref neg_infinity in
        (* The monitor sees packets in wire-time order, so sort the
           emitted records the way the main pipeline does. *)
        let sorter = Nt_sim.Record_sorter.create (Io_log.observe io) in
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
        let ooo = 100. *. Reorder.out_of_order_fraction io in
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
      let n = w.names in
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
      Pipeline.campus_to_pcap ~config:campus_cfg ~monitor_loss:0.03 ~start ~stop ~writer ());
  let eecs_cfg = { Nt_workload.Research.default_config with users = 20 } in
  run "EECS (NFSv2+v3/UDP)" ~loss:0.0 ~pcap_of:(fun ~writer ->
      Pipeline.eecs_to_pcap ~config:eecs_cfg ~monitor_loss:0.0 ~start ~stop ~writer ());
  print_endline
    "\nPaper 4.1.4: the CAMPUS mirror port lost up to ~10% of packets under load;\n\
     losing a call loses its reply too (orphan replies are undecodable)."

(* ------------------------------------------------------------------ *)
(* Fault layer: overhead when disabled, differential run when enabled  *)
(* ------------------------------------------------------------------ *)

let bench_frame () =
  let encoded_call =
    let e = Nt_xdr.Encode.create () in
    Nt_rpc.Rpc_msg.encode_call e
      {
        xid = 7;
        rpcvers = 2;
        prog = 100003;
        vers = 3;
        proc = 6;
        cred = Auth_unix { stamp = 0; machine = "c"; uid = 1; gid = 1; gids = [] };
        verf = Auth_null;
      };
    Nt_nfs.V3.encode_call e (Nt_nfs.Ops.Read { fh = Nt_nfs.Fh.make ~fsid:1 ~fileid:42; offset = 8192L; count = 8192 });
    Nt_xdr.Encode.contents e
  in
  Nt_net.Frame.encode
    (Nt_net.Frame.udp
       ~src_ip:(Nt_net.Ip_addr.v 10 0 0 1)
       ~dst_ip:(Nt_net.Ip_addr.v 10 0 0 2)
       ~src_port:700 ~dst_port:2049 encoded_call)

let faultperf () =
  banner "Fault layer overhead: pcap write path with injection off vs on";
  let module Fault = Nt_sim.Fault in
  let frame = bench_frame () in
  let n = 200_000 in
  let time_run f =
    (* Best of 3 to shake warm-up and GC noise out of the comparison. *)
    let best = ref infinity in
    for _ = 1 to 3 do
      let buf = Buffer.create (n * (String.length frame + 16)) in
      let writer = Nt_net.Pcap.writer_to_buffer buf in
      let t0 = Unix.gettimeofday () in
      f writer;
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    !best
  in
  let raw =
    time_run (fun writer ->
        for i = 0 to n - 1 do
          Nt_net.Pcap.write writer ~time:(float_of_int i *. 1e-4) frame
        done)
  in
  let through plan =
    time_run (fun writer ->
        let inj = Fault.create plan in
        for i = 0 to n - 1 do
          Fault.wrap_writer inj writer ~time:(float_of_int i *. 1e-4) frame
        done)
  in
  let off = through Fault.none in
  let on = through Fault.campus_burst in
  let mpps t = float_of_int n /. t /. 1e6 in
  let vs t = 100. *. ((t /. raw) -. 1.) in
  Tables.print
    ~header:[ "write path"; "time (ms)"; "Mpkt/s"; "vs raw" ]
    [
      [ "raw Pcap.write"; f2 (raw *. 1e3); f2 (mpps raw); "-" ];
      [ "fault layer disabled"; f2 (off *. 1e3); f2 (mpps off); Printf.sprintf "%+.1f%%" (vs off) ];
      [ "fault layer on (campus_burst)"; f2 (on *. 1e3); f2 (mpps on);
        Printf.sprintf "%+.1f%%" (vs on) ];
    ];
  Printf.printf "\ndisabled-layer overhead: %.1f%% (budget: <= 5%%)\n" (vs off)

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
(* nfslint throughput on a million-record stream                       *)
(* ------------------------------------------------------------------ *)

(* Shared synthetic lint workload: a pool of live handles, each
   introduced by one LOOKUP then hit with alternating reads and writes.
   Used by both the lint throughput bench and the nt_obs overhead
   gate, so the two measure the same stream. *)
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

let lint () =
  banner "nfslint: streaming throughput over a 1M-record synthetic trace";
  let n = 1_000_000 in
  let t0 = Unix.gettimeofday () in
  let engine = Nt_lint.Engine.run Nt_lint.Engine.default_config (lint_stream n) in
  let errors = Nt_lint.Engine.severity_count engine Nt_lint.Rule.Error in
  let warns = Nt_lint.Engine.severity_count engine Nt_lint.Rule.Warn in
  let dt = Unix.gettimeofday () -. t0 in
  Tables.print
    ~header:[ "statistic"; "value" ]
    [
      [ "records"; string_of_int (Nt_lint.Engine.records_seen engine) ];
      [ "wall time"; Printf.sprintf "%.2f s" dt ];
      [ "throughput"; Printf.sprintf "%.0f records/s" (float_of_int n /. dt) ];
      [ "findings"; Printf.sprintf "%d error(s), %d warning(s)" errors warns ];
      [ "tracked state entries"; string_of_int (Nt_lint.Engine.tracked engine) ];
    ];
  Printf.printf
    "\nState is O(active XIDs + live fhs), not O(records): %d entries after %d records\n\
     (capped at max_tracked=%d per table; a week-long trace lints in constant memory).\n"
    (Nt_lint.Engine.tracked engine) n Nt_lint.Engine.default_config.Nt_lint.Engine.max_tracked

(* ------------------------------------------------------------------ *)
(* nt_obs overhead gate: instrumented vs disabled vs compiled-out      *)
(* ------------------------------------------------------------------ *)

let obs_overhead () =
  banner "nt_obs overhead: lint workload instrumented vs disabled vs compiled-out";
  let module Obs = Nt_obs.Obs in
  let n =
    (* Smoke mode for CI: NT_OBS_BENCH_RECORDS shrinks the stream. *)
    match Sys.getenv_opt "NT_OBS_BENCH_RECORDS" with
    | Some s -> ( try max 1 (int_of_string s) with Failure _ -> 1_000_000)
    | None -> 1_000_000
  in
  let cfg = Nt_lint.Engine.default_config in
  (* Best of 3 per variant; severity_count forces the settle so the
     deferred protocol checks land inside the timed region. The lint
     engine's default registry is Obs.null, so the no-registry run is
     the compiled-out analog: instrumentation reduced to dead branches.
     The enabled arm carries the full v2 telemetry load — resource
     sampler ticked per record plus an attached trace timeline — so the
     5% budget covers everything a --trace-out production run pays. *)
  let last_sampler = ref None in
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
    ignore (Nt_lint.Engine.severity_count engine Nt_lint.Rule.Error);
    (Unix.gettimeofday () -. t0, obs)
  in
  let make_compiled_out () = (None, None) in
  let make_disabled () = (Some (Obs.create ~enabled:false ()), None) in
  let make_enabled () =
    let obs = Obs.create () in
    let tl = Nt_obs.Timeline.create () in
    Nt_obs.Timeline.attach tl obs;
    let sampler = Nt_obs.Sampler.create ~interval:0.25 obs in
    last_sampler := Some sampler;
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
  let snap = ref None in
  ignore (run_once make_compiled_out : float * Obs.t option);
  for r = 0 to rounds - 1 do
    Array.iteri
      (fun i make ->
        let dt, obs = run_once make in
        times.(i).(r) <- dt;
        if i = 2 then Option.iter (fun o -> snap := Some (Obs.snapshot o)) obs)
      variants
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
  let snap = !snap in
  let rss_hwm, heap_words =
    match !last_sampler with
    | Some s ->
        let smp = Nt_obs.Sampler.sample_now s in
        (smp.Nt_obs.Sampler.rss_hwm_bytes, smp.Nt_obs.Sampler.heap_words)
    | None -> (0, 0)
  in
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
  let open Json in
  write_report "BENCH_obs.json"
    (Obj
       [ ("schema", Str Nt_formats.Formats.bench_obs); ("workload", Str "lint_stream");
         ("records", int n);
         ( "seconds",
           Obj [ ("compiled_out", Num compiled_out); ("disabled", Num disabled);
                 ("enabled", Num enabled) ] );
         ( "records_per_second",
           Obj [ ("compiled_out", Num (rate compiled_out)); ("disabled", Num (rate disabled));
                 ("enabled", Num (rate enabled)) ] );
         ( "overhead_pct",
           Obj [ ("enabled_vs_disabled", Num enabled_vs_disabled);
                 ("disabled_vs_compiled_out", Num disabled_vs_compiled) ] );
         ("budget_pct", Num 5.0); ("heap_words", int heap_words); ("rss_hwm_bytes", int rss_hwm);
         ("pass", Bool pass);
         ("snapshot", match snap with Some s -> Obs.snapshot_json s | None -> Null) ]);
  if not pass then exit 1

(* ------------------------------------------------------------------ *)
(* nt_par: the report at jobs 1 vs 4, identity and per-pass gates     *)
(* ------------------------------------------------------------------ *)

let par_bench () =
  banner "nt_par: report engine, jobs 1 vs jobs 4";
  let module Obs = Nt_obs.Obs in
  let n =
    (* Smoke mode for CI: NT_PAR_BENCH_RECORDS shrinks the stream. *)
    match Sys.getenv_opt "NT_PAR_BENCH_RECORDS" with
    | Some s -> ( try max 1 (int_of_string s) with Failure _ -> 1_000_000)
    | None -> 1_000_000
  in
  (* Re-time the shared lint workload across a synthetic week so the
     summary and hourly passes see a realistic trace span. *)
  let span = 7. *. 86400. in
  let records =
    lint_stream n
    |> Seq.mapi (fun i (r : Nt_trace.Record.t) ->
           let time = 1000. +. (span *. float_of_int i /. float_of_int n) in
           { r with time; reply_time = Some (time +. 0.0005) })
    |> Array.of_seq
  in
  let sections = [ `Summary; `Runs; `Names; `Hourly ] in
  (* Best of 3 per jobs setting; the rendered report is kept so the two
     settings can be compared byte for byte. *)
  let time_jobs jobs =
    let best = ref infinity and snapshot = ref None and report = ref "" in
    for _ = 1 to 3 do
      let obs = Obs.create () in
      let t0 = Unix.gettimeofday () in
      let out = Nt_par.Report.run ~obs ~jobs ~sections records in
      let dt = Unix.gettimeofday () -. t0 in
      (* Keep the snapshot from the best iteration so its span totals
         describe the same run as the reported wall time. *)
      if dt < !best then begin
        best := dt;
        snapshot := Some (Obs.snapshot obs);
        report := String.concat "\n" (List.map snd out)
      end
    done;
    (!best, !report, !snapshot)
  in
  let t1, r1, snap1 = time_jobs 1 in
  let t4, r4, snap = time_jobs 4 in
  let speedup = t1 /. t4 in
  let identical = String.equal r1 r4 in
  let domains = Domain.recommended_domain_count () in
  (* Per-pass throughput from the jobs=1 snapshot: span totals there are
     sequential seconds over the whole stream, so n / total is
     single-core records/s for that pass.  Each pass is gated against
     the checked-in BENCH_par.json baseline (with slack for machine
     variance) so a regression in one pass fails the bench even when
     the aggregate hides it behind the others. *)
  let pass_rates =
    match snap1 with
    | None -> []
    | Some s ->
        List.filter_map
          (fun (st : Obs.span_stat) ->
            let prefix = "par.pass." in
            let pl = String.length prefix in
            if
              String.length st.Obs.path > pl
              && String.equal (String.sub st.Obs.path 0 pl) prefix
              && st.Obs.total_s > 0.
            then
              Some
                ( String.sub st.Obs.path pl (String.length st.Obs.path - pl),
                  float_of_int n /. st.Obs.total_s )
            else None)
          s.Obs.spans
  in
  (* jobs=1 records/s over the 1M-record workload that produced the
     checked-in BENCH_par.json: per-pass minima across repeated runs,
     deliberately conservative because a shared single-core container
     swings several-fold run to run.  The gate exists to catch
     order-of-magnitude per-pass regressions, not percent drift. *)
  let pass_baseline =
    [
      ("hourly", 20_054_143.); ("io_log", 569_525.); ("names", 1_070_555.);
      ("runs", 5_481_797.); ("summary", 5_767_697.);
    ]
  in
  let pass_slack =
    match Sys.getenv_opt "NT_PAR_BENCH_PASS_SLACK" with
    | Some s -> ( try max 1.0 (float_of_string s) with Failure _ -> 1.5)
    | None -> 1.5
  in
  (* Smoke-sized streams (NT_PAR_BENCH_RECORDS) are too noisy to gate. *)
  let pass_gate_enforced = n >= 1_000_000 in
  let regressed =
    List.filter_map
      (fun (name, base) ->
        match List.assoc_opt name pass_rates with
        | Some rate when rate < base /. pass_slack -> Some name
        | _ -> None)
      pass_baseline
  in
  let pass = identical && ((not pass_gate_enforced) || regressed = []) in
  let rate t = float_of_int n /. t in
  Tables.print
    ~header:[ "jobs"; "time (s)"; "records/s" ]
    [
      [ "1"; f2 t1; Printf.sprintf "%.0f" (rate t1) ];
      [ "4"; f2 t4; Printf.sprintf "%.0f" (rate t4) ];
    ];
  Printf.printf
    "\njobs 1 / jobs 4 time: %.2fx on %d available core(s), not gated\n\
     reports byte-identical across jobs settings: %s\n"
    speedup domains
    (if identical then "yes" else "NO");
  if pass_rates <> [] then begin
    Printf.printf "\nper-pass throughput at jobs=1 (gate: >= baseline / %.2f, %s):\n" pass_slack
      (if pass_gate_enforced then "ENFORCED" else "not enforced on a smoke-sized stream");
    Tables.print
      ~header:[ "pass"; "records/s"; "baseline"; "verdict" ]
      (List.map
         (fun (name, base) ->
           match List.assoc_opt name pass_rates with
           | Some r ->
               [
                 name; Printf.sprintf "%.0f" r; Printf.sprintf "%.0f" base;
                 (if r < base /. pass_slack then "REGRESSED" else "ok");
               ]
           | None -> [ name; "-"; Printf.sprintf "%.0f" base; "no span" ])
         pass_baseline)
  end;
  let end_smp = Nt_obs.Sampler.sample_now (Nt_obs.Sampler.create Obs.null) in
  let open Json in
  let rates l = Obj (List.map (fun (k, v) -> (k, Num v)) l) in
  write_report "BENCH_par.json"
    (Obj
       [ ("schema", Str Nt_formats.Formats.bench_par); ("workload", Str "lint_stream/week");
         ("records", int n); ("available_domains", int domains);
         ("seconds", Obj [ ("jobs1", Num t1); ("jobs4", Num t4) ]);
         ("records_per_second", Obj [ ("jobs1", Num (rate t1)); ("jobs4", Num (rate t4)) ]);
         ("speedup", Num speedup);
         ("pass_records_per_second", rates (List.sort compare pass_rates));
         ("pass_baseline_records_per_second", rates pass_baseline);
         ("pass_slack", Num pass_slack); ("pass_gate_enforced", Bool pass_gate_enforced);
         ("pass_regressed", Arr (List.map (fun r -> Str r) regressed));
         ("reports_identical", Bool identical);
         ("heap_words", int end_smp.Nt_obs.Sampler.heap_words);
         ("rss_hwm_bytes", int end_smp.Nt_obs.Sampler.rss_hwm_bytes); ("pass", Bool pass);
         ("snapshot", match snap with Some s -> Obs.snapshot_json s | None -> Null) ]);
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
  let n =
    (* Smoke mode for CI: NT_MON_BENCH_RECORDS shrinks the stream. *)
    match Sys.getenv_opt "NT_MON_BENCH_RECORDS" with
    | Some s -> ( try max 1 (int_of_string s) with Failure _ -> 1_000_000)
    | None -> 1_000_000
  in
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
  let warm_peak = ref 0 in
  (* All heap probes go through the service's resource sampler: one
     audited path instead of scattered Gc.quick_stat calls, and the
     readings land in the /series ring and rt.* gauges for free.
     Each gated probe compacts first so heap_words reads live state,
     not chunk-expansion timing: top_heap_words moves in whole heap
     chunks, and at smoke sizes a single expansion drifting across the
     warm mark swings the ratio more than real growth does. The warm
     probe sits at the halfway point — smoke-sized streams are not yet
     past ring warm-up at a quarter, and flat-over-the-back-half is the
     same boundedness claim. *)
  let compacted_probe () =
    Gc.compact ();
    Nt_obs.Sampler.sample_now (Service.sampler svc)
  in
  let rec loop () =
    match Service.step svc with
    | `Continue ->
        if !warm_peak = 0 && Service.observed svc >= n / 2 then
          warm_peak := (compacted_probe ()).Nt_obs.Sampler.heap_words;
        loop ()
    | `Stopped -> ()
  in
  loop ();
  Service.shutdown svc;
  let dt = Unix.gettimeofday () -. t0 in
  let end_smp = compacted_probe () in
  let end_peak = end_smp.Nt_obs.Sampler.heap_words in
  let warm_peak = if !warm_peak = 0 then end_peak else !warm_peak in
  (* Footprint honesty gate: the per-component state estimates must be
     non-trivial and within 2x of the live major heap — an estimator
     that drifts past the heap it claims to describe is lying. *)
  let footprints = Nt_obs.Sampler.publish_footprints (Service.sampler svc) in
  let fp_words =
    List.fold_left (fun acc (_, fp) -> acc + fp.Nt_obs.Footprint.words) 0 footprints
  in
  let fp_ok = fp_words > 0 && fp_words <= 2 * end_smp.Nt_obs.Sampler.heap_words in
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
  let heap_flat = float_of_int end_peak <= growth_budget *. float_of_int warm_peak in
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
      [ "compacted heap at 50% (words)"; string_of_int warm_peak ];
      [ "compacted heap at end (words)"; string_of_int end_peak ];
      [ "peak heap ever (words)"; string_of_int end_smp.Nt_obs.Sampler.top_heap_words ];
      [ "state footprint (words)"; string_of_int fp_words ];
      [ "peak RSS (bytes)"; string_of_int end_smp.Nt_obs.Sampler.rss_hwm_bytes ];
    ];
  Printf.printf
    "\nheap flat (end <= %.2fx warm): %s; evictions > 0: %s; conservation: %s;\n\
     footprint sum within 2x of live heap (%d <= 2 * %d): %s\n"
    growth_budget
    (if heap_flat then "PASS" else "FAIL")
    (if evictions > 0 then "PASS" else "FAIL")
    (if conserved then "PASS" else "FAIL")
    fp_words end_smp.Nt_obs.Sampler.heap_words
    (if fp_ok then "PASS" else "FAIL");
  let open Json in
  write_report "BENCH_mon.json"
    (Obj
       [ ("schema", Str Nt_formats.Formats.bench_mon); ("workload", Str "lint_stream/3days");
         ("records", int n); ("seconds", Num dt);
         ("records_per_second", Num (float_of_int n /. dt));
         ("reports", int !reports); ("rotations", int (Ring.rotations (Service.ring svc)));
         ("evictions", int evictions); ("shed", int (Service.shed svc));
         ("heap_words", Obj [ ("warm", int warm_peak); ("end", int end_peak) ]);
         ("growth_budget", Num growth_budget);
         ("rss_hwm_bytes", int end_smp.Nt_obs.Sampler.rss_hwm_bytes);
         ("footprint_words", int fp_words); ("footprint_within_2x_heap", Bool fp_ok);
         ("pass", Bool pass); ("snapshot", Obs.snapshot_json (Obs.snapshot obs)) ]);
  if not pass then exit 1

(* ------------------------------------------------------------------ *)
(* nt_tbin scale gate: user-count sweep through the out-of-core path   *)
(* ------------------------------------------------------------------ *)

(* The ROADMAP's "1:1 population scale, out of core" deliverable:
   simulate CAMPUS at growing user counts, stream every record through
   a tbin Writer to disk (no pcap, no in-memory trace), then decode the
   .ntb back record-by-record into the chunked report engine. Peak RSS
   must stay flat while the record volume grows 16x (100x locally via
   NT_SCALE_BENCH_MULTS), and decode+analyze throughput must not sag.

   The sweep runs in ascending order on purpose: VmHWM is monotone over
   a process's life, so with flat per-step memory the high-water mark
   set by the smallest run survives the largest, and the last/first
   ratio gates real growth rather than allocator noise. *)

let scale () =
  banner "nt_tbin scale: CAMPUS user sweep through the tbin streaming path";
  let env_int name default =
    match Sys.getenv_opt name with
    | Some s -> ( try max 1 (int_of_string s) with Failure _ -> default)
    | None -> default
  in
  let base_users = env_int "NT_SCALE_BENCH_USERS" 12 in
  let hours = env_int "NT_SCALE_BENCH_HOURS" 24 in
  let mults =
    match Sys.getenv_opt "NT_SCALE_BENCH_MULTS" with
    | Some s ->
        let parts = String.split_on_char ',' s in
        let ms = List.filter_map int_of_string_opt parts in
        if ms = [] then [ 1; 4; 16 ] else ms
    | None -> [ 1; 4; 16 ]
  in
  let obs = Nt_obs.Obs.create () in
  let sampler = Nt_obs.Sampler.create ~interval:0.25 obs in
  let live_decoder = ref None in
  Nt_obs.Sampler.set_footprints sampler (fun () ->
      match !live_decoder with
      | Some d -> [ ("tbin.decoder", Nt_tbin.Decoder.footprint d) ]
      | None -> []);
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
    Gc.compact ();
    let gen_s = Unix.gettimeofday () -. t0 in
    let bytes = (Unix.stat path).Unix.st_size in
    (* decode -> chunked report, streaming; peak state is one chunk *)
    Gc.compact ();
    let t1 = Unix.gettimeofday () in
    let dstats = ref None in
    let produce push =
      let ic = open_in_bin path in
      let d = Nt_tbin.Decoder.create ~obs () in
      live_decoder := Some d;
      let buf = Bytes.create 65536 in
      let rec drain () =
        match Nt_tbin.Decoder.pull d with
        | Some r ->
            push r;
            drain ()
        | None -> ()
      in
      let rec loop () =
        let n = input ic buf 0 (Bytes.length buf) in
        if n > 0 then begin
          Nt_tbin.Decoder.feed d (Bytes.sub_string buf 0 n);
          drain ();
          Nt_obs.Sampler.tick sampler;
          loop ()
        end
      in
      loop ();
      Nt_tbin.Decoder.finish d;
      drain ();
      close_in ic;
      dstats := Some (Nt_tbin.Decoder.stats d)
    in
    let _report, records =
      Pipeline.analyze_stream ~obs ~sections:[ `Summary; `Hourly ] produce
    in
    let an_s = Unix.gettimeofday () -. t1 in
    let stats = Option.get !dstats in
    ignore (Nt_obs.Sampler.publish_footprints sampler : (string * Nt_obs.Footprint.t) list);
    Sys.remove path;
    Gc.compact ();
    let smp = Nt_obs.Sampler.sample_now sampler in
    if Nt_tbin.failures stats <> 0 then begin
      Printf.eprintf "scale: decode failures at %dx: %s\n" mult
        (Nt_tbin.stats_to_string stats);
      exit 1
    end;
    if records <> stats.Nt_tbin.records then begin
      Printf.eprintf "scale: analyzed %d of %d decoded records at %dx\n" records
        stats.Nt_tbin.records mult;
      exit 1
    end;
    ( mult,
      users,
      records,
      bytes,
      gen_s,
      an_s,
      smp.Nt_obs.Sampler.rss_hwm_bytes,
      smp.Nt_obs.Sampler.heap_words )
  in
  let mults = List.sort compare mults in
  (* one unmeasured pass at the smallest multiple levels allocator
     pools and chunk buffers, so the first measured high-water mark is
     a steady state rather than a cold start *)
  ignore (step (List.hd mults));
  let rows = List.map step mults in
  let rps (_, _, records, _, _, an_s, _, _) =
    float_of_int records /. Float.max 1e-9 an_s
  in
  Tables.print
    ~header:
      [ "users"; "records"; "tbin bytes"; "gen (s)"; "decode+report (s)";
        "records/s"; "peak RSS" ]
    (List.map
       (fun ((_, users, records, bytes, gen_s, an_s, hwm, _) as row) ->
         [
           string_of_int users;
           string_of_int records;
           Tables.fmt_bytes (float_of_int bytes);
           f2 gen_s;
           f2 an_s;
           Printf.sprintf "%.0f" (rps row);
           Tables.fmt_bytes (float_of_int hwm);
         ])
       rows);
  let first = List.hd rows and last = List.hd (List.rev rows) in
  let hwm_of (_, _, _, _, _, _, hwm, _) = float_of_int hwm in
  let rss_growth = hwm_of last /. Float.max 1. (hwm_of first) in
  let rates = List.map rps rows in
  let min_rps = List.fold_left Float.min infinity rates in
  let max_rps = List.fold_left Float.max 0. rates in
  let rps_floor = 0.8 *. max_rps in
  let rss_ok = rss_growth <= 1.2 in
  let rps_ok = min_rps >= rps_floor in
  let pass = rss_ok && rps_ok in
  let mult_of (m, _, _, _, _, _, _, _) = m in
  Printf.printf
    "\npeak RSS growth across %dx more users: %.3fx (budget <= 1.2x): %s\n"
    (mult_of last / mult_of first)
    rss_growth
    (if rss_ok then "PASS" else "FAIL");
  Printf.printf "records/s floor: %.0f >= 0.8 * %.0f max: %s\n" min_rps max_rps
    (if rps_ok then "PASS" else "FAIL");
  let open Json in
  let row_json ((mult, users, records, bytes, gen_s, an_s, hwm, heap) as row) =
    Obj [ ("mult", int mult); ("users", int users); ("records", int records);
          ("tbin_bytes", int bytes); ("generate_seconds", Num gen_s); ("analyze_seconds", Num an_s);
          ("records_per_second", Num (rps row)); ("rss_hwm_bytes", int hwm);
          ("heap_words", int heap) ]
  in
  write_report "BENCH_scale.json"
    (Obj
       [ ("schema", Str Nt_formats.Formats.bench_scale); ("workload", Str "campus/tbin-stream");
         ("base_users", int base_users); ("hours", int hours);
         ("sweep", Arr (List.map row_json rows)); ("rss_growth", Num rss_growth);
         ("rss_budget", Num 1.2); ("min_records_per_second", Num min_rps);
         ("max_records_per_second", Num max_rps); ("rps_flatness_budget", Num 0.8);
         ("pass", Bool pass); ("snapshot", Nt_obs.Obs.snapshot_json (Nt_obs.Obs.snapshot obs)) ]);
  if not pass then exit 1

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the tracer's hot paths                 *)
(* ------------------------------------------------------------------ *)

let micro () =
  banner "Microbenchmarks (Bechamel): tracer hot paths";
  let open Bechamel in
  let open Toolkit in
  let fh = Nt_nfs.Fh.make ~fsid:1 ~fileid:42 in
  let read_call = Nt_nfs.Ops.Read { fh; offset = 8192L; count = 8192 } in
  let encoded_call =
    let e = Nt_xdr.Encode.create () in
    Nt_rpc.Rpc_msg.encode_call e
      {
        xid = 7;
        rpcvers = 2;
        prog = 100003;
        vers = 3;
        proc = 6;
        cred = Auth_unix { stamp = 0; machine = "c"; uid = 1; gid = 1; gids = [] };
        verf = Auth_null;
      };
    Nt_nfs.V3.encode_call e read_call;
    Nt_xdr.Encode.contents e
  in
  let frame =
    Nt_net.Frame.encode
      (Nt_net.Frame.udp
         ~src_ip:(Nt_net.Ip_addr.v 10 0 0 1)
         ~dst_ip:(Nt_net.Ip_addr.v 10 0 0 2)
         ~src_port:700 ~dst_port:2049 encoded_call)
  in
  let accesses =
    Array.init 512 (fun i ->
        {
          Io_log.at = float_of_int i *. 0.001;
          offset = i * 8192;
          count = 8192;
          is_read = true;
          at_eof = i = 511;
          file_size = 512 * 8192;
        })
  in
  let marked = Nt_rpc.Record_mark.frame encoded_call in
  let tests =
    Test.make_grouped ~name:"nfstrace"
      [
        Test.make ~name:"xdr-encode-read-call"
          (Staged.stage (fun () ->
               let e = Nt_xdr.Encode.create () in
               Nt_nfs.V3.encode_call e read_call;
               Nt_xdr.Encode.contents e));
        Test.make ~name:"rpc+nfs-decode-call"
          (Staged.stage (fun () ->
               let msg, body =
                 Nt_rpc.Rpc_msg.decode encoded_call ~pos:0 ~len:(String.length encoded_call)
               in
               match msg with
               | Nt_rpc.Rpc_msg.Call c ->
                   let d = Nt_xdr.Decode.of_string ~pos:body encoded_call in
                   ignore
                     (Nt_nfs.V3.decode_call
                        ~proc:(Option.get (Nt_nfs.Proc.of_v3_number c.proc))
                        d)
               | Nt_rpc.Rpc_msg.Reply _ -> ()));
        Test.make ~name:"ethernet+ip+udp-decode"
          (Staged.stage (fun () -> ignore (Nt_net.Frame.decode frame)));
        Test.make ~name:"record-mark-reassemble"
          (Staged.stage (fun () ->
               let rm = Nt_rpc.Record_mark.create_reassembler () in
               ignore (Nt_rpc.Record_mark.push rm marked)));
        Test.make ~name:"reorder-window-512-accesses"
          (Staged.stage (fun () -> ignore (Io_log.sort_window 0.01 accesses)));
        Test.make ~name:"classify-run-512-accesses"
          (Staged.stage (fun () -> ignore (Runs.classify ~jump_blocks:10 accesses)));
        Test.make ~name:"sequentiality-metric-512"
          (Staged.stage (fun () -> ignore (Seqmetric.run_metric ~c:10 accesses)));
      ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~stabilize:true ~quota:(Time.second 0.25) () in
  let raw = Benchmark.all cfg instances tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Printf.printf "  %-40s %12.1f ns/run\n" name est
      | Some _ | None -> Printf.printf "  %-40s (no estimate)\n" name)
    results

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
    ("faultperf", faultperf);
    ("degraded", degraded);
    ("lint", lint);
    ("obs", obs_overhead);
    ("par", par_bench);
    ("mon", mon_soak);
    ("scale", scale);
    ("micro", micro);
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
