module A = Nt_analysis
module T = Nt_util.Tables
module Obs = Nt_obs.Obs
module Timeline = Nt_obs.Timeline
module Tw = Nt_util.Trace_week

type section =
  [ `Summary
  | `Runs
  | `Names
  | `Hourly
  | `Daily
  | `Variance
  | `Rawruns
  | `Sizes
  | `Seqmetric
  | `Lifetime
  | `Reorder ]

let all_sections =
  [ `Summary; `Runs; `Names; `Hourly; `Daily; `Variance; `Rawruns; `Sizes; `Seqmetric; `Lifetime;
    `Reorder ]

let section_name = function
  | `Summary -> "summary"
  | `Runs -> "runs"
  | `Names -> "names"
  | `Hourly -> "hourly"
  | `Daily -> "daily"
  | `Variance -> "variance"
  | `Rawruns -> "rawruns"
  | `Sizes -> "sizes"
  | `Seqmetric -> "seqmetric"
  | `Lifetime -> "lifetime"
  | `Reorder -> "reorder"

let render_summary s =
  T.render ~title:"Summary" ~header:[ "statistic"; "value" ]
    [
      [ "records"; string_of_int (A.Summary.total_ops s) ];
      [ "trace span"; T.fmt_duration (A.Summary.days s *. 86400.) ];
      [ "data read"; T.fmt_bytes (A.Summary.bytes_read s) ];
      [ "data written"; T.fmt_bytes (A.Summary.bytes_written s) ];
      [ "read ops"; string_of_int (A.Summary.read_ops s) ];
      [ "write ops"; string_of_int (A.Summary.write_ops s) ];
      [ "R/W op ratio"; T.fmt_float (A.Summary.read_write_op_ratio s) ];
      [ "R/W byte ratio"; T.fmt_float (A.Summary.read_write_byte_ratio s) ];
      [ "data calls"; T.fmt_pct (A.Summary.data_ops_pct s) ];
      [ "unique files"; string_of_int (A.Summary.unique_files_accessed s) ];
    ]
  ^ "\n"
  ^ T.render ~title:"Calls by procedure" ~header:[ "procedure"; "calls" ]
      (List.map
         (fun (p, n) -> [ Nt_nfs.Proc.to_string p; string_of_int n ])
         (A.Summary.top_procs s))

let render_names n =
  T.render ~title:"File categories (by last pathname component)"
    ~header:[ "category"; "files"; "created+deleted"; "median size"; "read-only %" ]
    (List.map
       (fun (cat, (s : A.Names.category_stats)) ->
         [
           A.Names.category_to_string cat;
           string_of_int s.files_seen;
           string_of_int s.created_deleted;
           T.fmt_bytes s.median_size;
           T.fmt_pct s.read_only_pct;
         ])
       (A.Names.stats n))
  ^ Printf.sprintf "locks among created+deleted files: %.1f%%\n"
      (A.Names.lock_created_deleted_pct n)

let render_hourly h =
  T.render ~title:"Hourly activity" ~header:[ "hour"; "ops"; "reads"; "writes"; "R/W" ]
    (List.filter_map
       (fun (p : A.Hourly.hour_point) ->
         if p.ops = 0 then None
         else
           Some
             [
               string_of_int p.hour;
               string_of_int p.ops;
               string_of_int p.reads;
               string_of_int p.writes;
               T.fmt_float (A.Hourly.rw_ratio p);
             ])
       (A.Hourly.series h))

(* The paper's tables. Each one's rows are defined here once: nfsstats
   prints them as a section, and the benchmark harness sets the paper's
   columns beside them. *)

type table = { header : string list; rows : string list list }

let f1 = T.fmt_float ~decimals:1
let f2 = T.fmt_float ~decimals:2

let daily_header =
  [ "ops (M)"; "read GB"; "read ops M"; "write GB"; "write ops M"; "R/W bytes"; "R/W ops" ]

let daily_row (d : A.Summary.daily) =
  [
    f2 d.total_ops_m;
    f1 d.data_read_gb;
    f2 d.read_ops_m;
    f1 d.data_written_gb;
    f2 d.write_ops_m;
    f2 d.rw_byte_ratio;
    f2 d.rw_op_ratio;
  ]

let variance_table h =
  let all = A.Hourly.all_hours h and peak = A.Hourly.peak_hours h in
  let row name (a : A.Hourly.variance_row) (p : A.Hourly.variance_row) =
    [
      name;
      Printf.sprintf "%s (%.0f%%)" (f1 a.mean) a.stddev_pct;
      Printf.sprintf "%s (%.0f%%)" (f1 p.mean) p.stddev_pct;
    ]
  in
  {
    header = [ "statistic"; "all hours"; "peak hours" ];
    rows =
      [
        row "total ops (1000s)" all.total_ops_k peak.total_ops_k;
        row "data read (MB)" all.data_read_mb peak.data_read_mb;
        row "read ops (1000s)" all.read_ops_k peak.read_ops_k;
        row "data written (MB)" all.data_written_mb peak.data_written_mb;
        row "write ops (1000s)" all.write_ops_k peak.write_ops_k;
        row "R/W op ratio" all.rw_op_ratio peak.rw_op_ratio;
      ];
  }

let table3_rows (t : A.Runs.table3) =
  List.map
    (fun (name, v) -> [ name; f1 v ])
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

(* Table 3 as a section: the run count, then the breakdown. The
   processed section has always stopped before the read-write split. *)
let render_runs ~title ~rw (t : A.Runs.table3) =
  let rows = table3_rows t in
  T.render ~title ~header:[ "pattern"; "%" ]
    ([ "total runs"; string_of_int t.total_runs ]
    :: (if rw then rows else List.filteri (fun i _ -> i < 9) rows))

let sizes_table r =
  let c = A.Runs.by_file_size r in
  {
    header = [ "file size <="; "total %"; "entire %"; "sequential %"; "random %" ];
    rows =
      Array.to_list
        (Array.mapi
           (fun i edge ->
             [ T.fmt_bytes edge; f1 c.total.(i); f1 c.entire.(i); f1 c.sequential.(i); f1 c.random.(i) ])
           c.edges);
  }

let seqmetric_table r =
  let c = A.Runs.sequentiality r in
  let cell v = if Float.is_nan v then "-" else f2 v in
  {
    header =
      [ "run bytes <="; "rd c=10"; "rd c=1"; "wr c=10"; "wr c=1"; "cum runs %"; "cum rd %"; "cum wr %" ];
    rows =
      Array.to_list
        (Array.mapi
           (fun i edge ->
             [
               T.fmt_bytes edge;
               cell c.read_allowed.(i);
               cell c.read_strict.(i);
               cell c.write_allowed.(i);
               cell c.write_strict.(i);
               f1 c.cum_total_runs.(i);
               f1 c.cum_read_runs.(i);
               f1 c.cum_write_runs.(i);
             ])
           c.bucket_edges);
  }

let reorder_table o =
  {
    header = [ "window (ms)"; "swapped %" ];
    rows = List.map (fun (w, p) -> [ Printf.sprintf "%.0f" w; f2 p ]) (A.Reorder.swapped o);
  }

type phases = (Tw.day * A.Lifetime.result) list

let phase_mean (phases : phases) f =
  List.fold_left (fun acc (_, r) -> acc +. f r) 0. phases /. float_of_int (List.length phases)

(* The phases' lifetime CDFs merged, each weighted by its deaths. *)
let lifetime_cdf (phases : phases) =
  let total = List.fold_left (fun acc (_, (r : A.Lifetime.result)) -> acc + r.deaths) 0 phases in
  match phases with
  | [] -> []
  | (_, first) :: _ ->
      List.map
        (fun (edge, _) ->
          let frac =
            if total = 0 then 0.
            else
              List.fold_left
                (fun acc (_, (r : A.Lifetime.result)) ->
                  acc +. (A.Lifetime.cdf_at r edge *. float_of_int r.deaths))
                0. phases
              /. float_of_int total
          in
          (edge, frac))
        first.lifetime_cdf

let cdf_value cdf x =
  let rec go last = function [] -> last | (e, f) :: rest -> if e > x then last else go f rest in
  go 0. cdf

let lifetime_table ?scale (phases : phases) =
  let mean f = T.fmt_pct (phase_mean phases f) in
  let days = List.length phases in
  let total name f =
    let n = List.fold_left (fun acc (_, r) -> acc + f r) 0 phases in
    [
      Printf.sprintf "total %s (%d day%s)" name days (if days = 1 then "" else "s");
      (match scale with
      | Some s -> Printf.sprintf "%d (%.2fM rescaled)" n (float_of_int n /. s /. 1e6)
      | None -> string_of_int n);
    ]
  in
  {
    header = [ "statistic"; "value" ];
    rows =
      [
        total "births" (fun r -> r.A.Lifetime.births);
        [ "  due to writes"; mean (fun r -> r.births_write_pct) ];
        [ "  due to extension"; mean (fun r -> r.births_extension_pct) ];
        total "deaths" (fun r -> r.A.Lifetime.deaths);
        [ "  due to overwrites"; mean (fun r -> r.deaths_overwrite_pct) ];
        [ "  due to truncates"; mean (fun r -> r.deaths_truncate_pct) ];
        [ "  due to file deletion"; mean (fun r -> r.deaths_deletion_pct) ];
        [ "daily end surplus"; mean (fun r -> r.end_surplus_pct) ];
      ];
  }

let cdf_table phases =
  let cdf = lifetime_cdf phases in
  {
    header = [ "lifetime <="; "deaths %" ];
    rows =
      List.map
        (fun x -> [ T.fmt_duration x; T.fmt_pct (100. *. cdf_value cdf x) ])
        [ 1.; 10.; 30.; 60.; 300.; 600.; 1200.; 3600.; 14400.; 43200.; 86400. ];
  }

let print ?title t = T.render ?title ~header:t.header t.rows

let render_lifetime = function
  | [] -> "Block lifetimes: the trace covers no weekday 9am phase for 24h + 24h\n"
  | phases ->
      let days = String.concat " " (List.map (fun (d, _) -> Tw.day_to_string d) phases) in
      print
        ~title:(Printf.sprintf "Block lifetimes (9am phases: %s; 24h + 24h margin)" days)
        (lifetime_table phases)
      ^ "\n"
      ^ print ~title:"Block lifetime CDF" (cdf_table phases)

let render_reorder o =
  print ~title:"Accesses swapped by reorder window" (reorder_table o)
  ^ Printf.sprintf "knee: %.0f ms\nout-of-order same-file pairs: %s\n"
      (A.Reorder.knee (A.Reorder.swapped o))
      (T.fmt_pct (100. *. A.Reorder.out_of_order o))

(* What the folds hold once the input is read: [None] for a fold no
   requested section reads. *)
type values = {
  summary : A.Summary.t option;
  hourly : A.Hourly.t option;
  names : A.Names.t option;
  runs : A.Runs.t option;
  raw_runs : A.Runs.t option;
  lifetime : phases option;
  reorder : A.Reorder.t option;
}

let render v s =
  let get = Option.get in
  match s with
  | `Summary -> render_summary (get v.summary)
  | `Hourly -> render_hourly (get v.hourly)
  | `Names -> render_names (get v.names)
  | `Runs ->
      render_runs ~title:"Run patterns (processed: 10ms window, 10-block jumps)" ~rw:false
        (A.Runs.table3 (get v.runs))
  | `Daily ->
      T.render ~title:"Average daily activity" ~header:daily_header
        [ daily_row (A.Summary.daily (get v.summary)) ]
  | `Variance ->
      let h = get v.hourly in
      print ~title:"Hourly variance (mean, stddev as % of mean)" (variance_table h)
      ^ Printf.sprintf "variance reduction at peak: %.1fx\n" (A.Hourly.variance_reduction h)
  | `Rawruns ->
      render_runs ~title:"Run patterns (raw: arrival order, 1-block jumps)" ~rw:true
        (A.Runs.table3 ~strict:true (get v.raw_runs))
  | `Sizes -> print ~title:"Bytes accessed by file size (cumulative)" (sizes_table (get v.runs))
  | `Seqmetric ->
      print ~title:"Sequentiality metric by bytes accessed per run" (seqmetric_table (get v.runs))
  | `Lifetime -> render_lifetime (get v.lifetime)
  | `Reorder -> render_reorder (get v.reorder)
[@@nt.raise_ok "a section reads only folds its request put in the plan"]

(* The range fold. The input is split into ranges that fold
   independently: range 0 on the calling domain into root
   accumulators, every later range on a fresh domain of its own into
   shard-mode ones. A range's records land in a small reused batch;
   when it fills, every wanted pass observes it, timed per batch. The
   batch is small so records are observed while still young: a larger
   one keeps them alive across minor collections and promotes them.
   Nothing a range touches is shared: its accumulators, batch, timings
   and trace buffer are its own, and the coordinator reads them only
   after every domain has joined. Then it left-folds the ranges'
   accumulators with one [par.merge] span per merge; if the ranges did
   not stitch, it reads the input again as one range. It records one
   [par.pass.<name>] span per range of the folds it keeps and absorbs
   their trace buffers. *)

type 'a fold = { pass : 'a Passes.pass; mutable merged : 'a option }
type any_fold = Fold : 'a fold -> any_fold
type acc = Acc : 'a fold * 'a -> acc

(* The folds the requested sections read, each once, in a fixed order,
   and how to read their results back out. *)
type plan = { folds : any_fold array; one_range : bool; values : unit -> values }

let plan ?window sections =
  let fold pass = { pass; merged = None } in
  let summary = fold Passes.summary and hourly = fold Passes.hourly in
  let names = fold Passes.names and runs = fold (Passes.runs ?window ()) in
  let raw_runs = fold Passes.raw_runs and lifetime = fold Passes.lifetime in
  let reorder = fold Passes.reorder in
  let wanted =
    [
      (Fold summary, [ `Summary; `Daily ]);
      (Fold hourly, [ `Hourly; `Variance ]);
      (Fold names, [ `Names ]);
      (Fold runs, [ `Runs; `Sizes; `Seqmetric ]);
      (Fold raw_runs, [ `Rawruns ]);
      (Fold lifetime, [ `Lifetime ]);
      (Fold reorder, [ `Reorder ]);
    ]
  in
  let folds =
    List.filter_map
      (fun (f, readers) -> if List.exists (fun s -> List.mem s sections) readers then Some f else None)
      wanted
  in
  let values () =
    {
      summary = summary.merged;
      hourly = hourly.merged;
      names = names.merged;
      runs = runs.merged;
      raw_runs = raw_runs.merged;
      lifetime = Option.map Passes.covered lifetime.merged;
      reorder = reorder.merged;
    }
  in
  {
    folds = Array.of_list folds;
    one_range = List.exists (fun (Fold f) -> Option.is_none f.pass.shards) folds;
    values;
  }

(* One range: its accumulators, its batch and its timings. *)
type range = {
  accs : acc array;
  secs : float array;  (** observe time per pass *)
  mutable batch : Nt_trace.Record.t array;
  mutable fill : int;
  mutable records : int;
  t0 : float;
}

type 'r part = { range : range; result : 'r; tbuf : Timeline.buf  (** [par.range] *) }

let batch_len = 64

let open_range folds ~root =
  let init (type a) (f : a fold) : a =
    match f.pass.shards with
    | Some s when not root -> s.init_shard ()
    | _ -> f.pass.init ()
  in
  let accs = Array.map (fun (Fold f) -> Acc (f, init f)) folds in
  {
    accs;
    secs = Array.make (Array.length accs) 0.;
    batch = [||];
    fill = 0;
    records = 0;
    t0 = Unix.gettimeofday ();
  }

let observe_batch rg =
  let t0 = ref (Unix.gettimeofday ()) in
  Array.iteri
    (fun j (Acc (f, acc)) ->
      for i = 0 to rg.fill - 1 do
        f.pass.observe acc (Array.unsafe_get rg.batch i)
      done;
      let t1 = Unix.gettimeofday () in
      rg.secs.(j) <- rg.secs.(j) +. (t1 -. !t0);
      t0 := t1)
    rg.accs;
  rg.fill <- 0

let push_range rg r =
  if Array.length rg.batch = 0 then rg.batch <- Array.make batch_len r;
  Array.unsafe_set rg.batch rg.fill r;
  rg.fill <- rg.fill + 1;
  rg.records <- rg.records + 1;
  if rg.fill = batch_len then observe_batch rg

let close_range rg result =
  if rg.fill > 0 then observe_batch rg;
  let tbuf = Timeline.buf () in
  Timeline.buf_add tbuf ~name:"par.range" ~t0:rg.t0 ~t1:(Unix.gettimeofday ());
  { range = rg; result; tbuf }

let fold_range folds ~root produce =
  let rg = open_range folds ~root in
  close_range rg (produce (push_range rg))

let max_ranges = 64

let range_count jobs =
  min max_ranges (if jobs <= 0 then Domain.recommended_domain_count () else jobs)

let settle f = match f () with v -> Ok v | exception e -> Error e

(* Every domain joins before an exception from any range propagates. *)
let fold_ranges folds ~ranges produce =
  let range i () = fold_range folds ~root:(i = 0) (produce ~ranges i) in
  let workers = Array.init (ranges - 1) (fun i -> Domain.spawn (range (i + 1))) in
  let first = settle (range 0) in
  let rest = Array.map (fun d -> settle (fun () -> Domain.join d)) workers in
  Array.map (function Ok p -> p | Error e -> raise e) (Array.append [| first |] rest)
[@@nt.raise_ok "re-raises what a range's producer raised, once every domain has joined"]

(* Left-fold every range's accumulators into the folds, in range order,
   with one [par.merge] span per merge. A plan with a one-range fold
   reads one range, so only folds with a shard side ever merge. *)
let merge_parts obs folds parts =
  Array.iter (fun (Fold f) -> f.merged <- None) folds;
  Array.iteri
    (fun i p ->
      let commit () =
        Array.iter
          (fun (Acc (f, acc)) ->
            f.merged <-
              Some
                (match (f.merged, f.pass.shards) with
                | Some prev, Some s -> s.merge prev acc
                | _ -> acc))
          p.range.accs
      in
      (* range 0 becomes the root as is; every later range merges *)
      if i = 0 then commit () else Obs.with_span obs "par.merge" commit)
    parts

let stitched_folds folds =
  Array.for_all
    (fun (Fold f) ->
      match (f.pass.shards, f.merged) with Some s, Some m -> s.stitched m | _ -> true)
    folds

(* The kept ranges' spans and trace buffers, then every fold's end of
   input, and the sections. *)
let conclude ?timeline obs plan ~sections parts =
  Array.iter
    (fun p ->
      Option.iter (fun tl -> Timeline.absorb tl p.tbuf) timeline;
      Array.iter2
        (fun (Fold f) seconds -> Obs.span_record obs ("par.pass." ^ f.pass.name) ~seconds)
        plan.folds p.range.secs)
    parts;
  Array.iter (fun (Fold f) -> Option.iter f.pass.finish f.merged) plan.folds;
  let v = plan.values () in
  (List.map (fun s -> (s, render v s)) sections, Array.fold_left (fun n p -> n + p.range.records) 0 parts, v)

let run_ranges ?(obs = Obs.null) ?timeline ?(stitched = fun _ -> true) ~ranges ~sections produce =
  let plan = plan sections in
  let ranges = if plan.one_range then 1 else ranges in
  let rerun cause =
    Obs.inc
      (Obs.counter obs ~labels:[ ("cause", cause) ]
         ~help:"range folds thrown away and read again as one range" "par.reruns");
    let parts = fold_ranges plan.folds ~ranges:1 produce in
    merge_parts obs plan.folds parts;
    parts
  in
  let parts = fold_ranges plan.folds ~ranges produce in
  let parts =
    if ranges > 1 && not (stitched (Array.map (fun p -> p.result) parts)) then rerun "stitch"
    else begin
      merge_parts obs plan.folds parts;
      if stitched_folds plan.folds then parts else rerun "runs"
    end
  in
  let texts, n, _ = conclude ?timeline obs plan ~sections parts in
  (texts, n, Array.map (fun p -> p.result) parts)

type handle = {
  h_obs : Obs.t;
  h_timeline : Timeline.t option;
  h_plan : plan;
  h_sections : section list;
  h_range : range;
}

let start ?(obs = Obs.null) ?timeline ?window ~sections () =
  let plan = plan ?window sections in
  { h_obs = obs; h_timeline = timeline; h_plan = plan; h_sections = sections;
    h_range = open_range plan.folds ~root:true }

let push h r = push_range h.h_range r

let finish h =
  let parts = [| close_range h.h_range () |] in
  merge_parts h.h_obs h.h_plan.folds parts;
  conclude ?timeline:h.h_timeline h.h_obs h.h_plan ~sections:h.h_sections parts

let run_stream ?obs ?timeline ~sections produce =
  let h = start ?obs ?timeline ~sections () in
  produce (push h);
  let texts, n, _ = finish h in
  (texts, n)

let run ?obs ?timeline ?(jobs = 1) ~sections records =
  let n = Array.length records in
  let texts, _, _ =
    run_ranges ?obs ?timeline ~ranges:(range_count jobs) ~sections (fun ~ranges i push ->
        for j = n * i / ranges to (n * (i + 1) / ranges) - 1 do
          push records.(j)
        done)
  in
  texts
