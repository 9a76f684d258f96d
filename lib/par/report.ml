module A = Nt_analysis
module T = Nt_util.Tables
module Obs = Nt_obs.Obs
module Timeline = Nt_obs.Timeline

type section = [ `Summary | `Runs | `Names | `Hourly ]

let section_name = function
  | `Summary -> "summary"
  | `Runs -> "runs"
  | `Names -> "names"
  | `Hourly -> "hourly"

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

let render_runs (t : A.Runs.table3) =
  let f = T.fmt_float ~decimals:1 in
  T.render ~title:"Run patterns (processed: 10ms window, 10-block jumps)" ~header:[ "pattern"; "%" ]
    [
      [ "total runs"; string_of_int t.total_runs ];
      [ "reads (% total)"; f t.reads_pct ];
      [ "  entire (% read)"; f t.read.entire_pct ];
      [ "  sequential (% read)"; f t.read.sequential_pct ];
      [ "  random (% read)"; f t.read.random_pct ];
      [ "writes (% total)"; f t.writes_pct ];
      [ "  entire (% write)"; f t.write.entire_pct ];
      [ "  sequential (% write)"; f t.write.sequential_pct ];
      [ "  random (% write)"; f t.write.random_pct ];
      [ "read-write (% total)"; f t.rw_pct ];
    ]

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

(* The requested passes as folds, in a fixed order, plus the renderer
   that reads their merged results back out in request order and the
   check that the runs merges stitched. *)
let section_folds sections =
  let fold pass = { pass; merged = None } in
  let summary = fold Passes.summary and hourly = fold Passes.hourly in
  let names = fold Passes.names and runs = fold Passes.online_runs in
  let folds =
    List.filter_map
      (fun (s, f) -> if List.mem s sections then Some f else None)
      [ (`Summary, Fold summary); (`Hourly, Fold hourly); (`Names, Fold names); (`Runs, Fold runs) ]
  in
  let result f = Option.get f.merged in
  let stitched () = Option.fold ~none:true ~some:A.Runs.stitched runs.merged in
  let render () =
    List.map
      (fun s ->
        ( s,
          match s with
          | `Summary -> render_summary (result summary)
          | `Hourly -> render_hourly (result hourly)
          | `Names -> render_names (result names)
          | `Runs ->
              let r = result runs in
              A.Runs.finish r;
              render_runs (A.Runs.table3 r) ))
      sections
  in
  (Array.of_list folds, stitched, render)
[@@nt.raise_ok "each Option.get reads a fold every range merged into before rendering"]

type 'r part = {
  accs : acc array;
  secs : float array;  (** observe time per pass *)
  records : int;
  result : 'r;
  tbuf : Timeline.buf;  (** the range's [par.range] interval *)
}

let batch_len = 64

let fold_range folds ~root produce =
  let accs =
    Array.map
      (fun (Fold f) -> Acc (f, if root then f.pass.init () else f.pass.init_shard ()))
      folds
  in
  let secs = Array.make (Array.length accs) 0. in
  let batch = ref [||] and fill = ref 0 and records = ref 0 in
  let observe_batch () =
    let t0 = ref (Unix.gettimeofday ()) in
    Array.iteri
      (fun j (Acc (f, acc)) ->
        for i = 0 to !fill - 1 do
          f.pass.observe acc (Array.unsafe_get !batch i)
        done;
        let t1 = Unix.gettimeofday () in
        secs.(j) <- secs.(j) +. (t1 -. !t0);
        t0 := t1)
      accs;
    fill := 0
  in
  let push r =
    if Array.length !batch = 0 then batch := Array.make batch_len r;
    Array.unsafe_set !batch !fill r;
    incr fill;
    incr records;
    if !fill = batch_len then observe_batch ()
  in
  let t0 = Unix.gettimeofday () in
  let result = produce push in
  if !fill > 0 then observe_batch ();
  let tbuf = Timeline.buf () in
  Timeline.buf_add tbuf ~name:"par.range" ~t0 ~t1:(Unix.gettimeofday ());
  { accs; secs; records = !records; result; tbuf }

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
   with one [par.merge] span per merge. *)
let merge_parts obs folds parts =
  Array.iter (fun (Fold f) -> f.merged <- None) folds;
  Array.iteri
    (fun i p ->
      let commit () =
        Array.iter
          (fun (Acc (f, acc)) ->
            f.merged <-
              Some (match f.merged with None -> acc | Some prev -> f.pass.merge prev acc))
          p.accs
      in
      (* range 0 becomes the root as is; every later range merges *)
      if i = 0 then commit () else Obs.with_span obs "par.merge" commit)
    parts

let run_ranges ?(obs = Obs.null) ?timeline ?(stitched = fun _ -> true) ~ranges ~sections
    produce =
  let folds, runs_stitched, render = section_folds sections in
  let rerun cause =
    Obs.inc
      (Obs.counter obs ~labels:[ ("cause", cause) ]
         ~help:"range folds thrown away and read again as one range" "par.reruns");
    let parts = fold_ranges folds ~ranges:1 produce in
    merge_parts obs folds parts;
    parts
  in
  let parts = fold_ranges folds ~ranges produce in
  let parts =
    if ranges > 1 && not (stitched (Array.map (fun p -> p.result) parts)) then rerun "stitch"
    else begin
      merge_parts obs folds parts;
      if runs_stitched () then parts else rerun "runs"
    end
  in
  Array.iter
    (fun p ->
      Option.iter (fun tl -> Timeline.absorb tl p.tbuf) timeline;
      Array.iter2
        (fun (Fold f) seconds -> Obs.span_record obs ("par.pass." ^ f.pass.name) ~seconds)
        folds p.secs)
    parts;
  ( render (),
    Array.fold_left (fun n p -> n + p.records) 0 parts,
    Array.map (fun p -> p.result) parts )

let run_stream ?obs ?timeline ~sections produce =
  let texts, n, _ =
    run_ranges ?obs ?timeline ~ranges:1 ~sections (fun ~ranges:_ _ push -> produce push)
  in
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
