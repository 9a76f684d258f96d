module A = Nt_analysis
module T = Nt_util.Tables
module Obs = Nt_obs.Obs

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

let default_records_per_shard = 65536

(* The streaming fold: the producer pushes records and the trace is
   never held in memory. Each record lands in a small reused batch;
   when the batch fills, every wanted pass observes it into the current
   chunk's accumulator, timed per batch. Chunks are exactly
   [records_per_shard] long — chunk 0 on the root accumulator, later
   chunks on shard-mode ones, left-fold merges at each boundary, one
   [par.merge] span per boundary. Each chunk's observe time lands once
   on [par.pass.<name>]. The batch is small so records are observed
   while still young: a larger one keeps them alive across minor
   collections and promotes them. Worker domains exist only for the
   runs finalize. *)

type 'a fold = {
  pass : 'a Driver.pass;
  mutable merged : 'a option;
  mutable acc : 'a option;  (** the open chunk *)
  mutable secs : float;  (** the open chunk's observe time *)
}

type any_fold = Fold : 'a fold -> any_fold

let fold pass = { pass; merged = None; acc = None; secs = 0. }

(* The requested passes as folds, in a fixed order, plus the renderer
   that reads their merged results back out in request order. [runs]
   classifies the merged I/O log on the finalize pool. *)
let section_folds sections =
  let summary = fold Passes.summary and hourly = fold Passes.hourly in
  let names = fold Passes.names and log = fold Passes.io_log in
  let folds =
    List.filter_map
      (fun (s, f) -> if List.mem s sections then Some f else None)
      [ (`Summary, Fold summary); (`Hourly, Fold hourly); (`Names, Fold names); (`Runs, Fold log) ]
  in
  let result f = Option.get f.merged in
  let render ~runs =
    List.map
      (fun s ->
        ( s,
          match s with
          | `Summary -> render_summary (result summary)
          | `Hourly -> render_hourly (result hourly)
          | `Names -> render_names (result names)
          | `Runs -> render_runs (A.Runs.table3 (runs (result log))) ))
      sections
  in
  (Array.of_list folds, render)
[@@nt.raise_ok "each Option.get reads a fold the stream committed before rendering"]

(* chunk 0 is the only one opened before anything has merged *)
let open_acc f =
  match f.acc with
  | Some acc -> acc
  | None ->
      let acc = if Option.is_none f.merged then f.pass.init () else f.pass.init_shard () in
      f.acc <- Some acc;
      acc

let batch_len = 64

let run_stream ?(obs = Obs.null) ?timeline ?(jobs = 1)
    ?(records_per_shard = default_records_per_shard) ~sections produce =
  if records_per_shard <= 0 then
    invalid_arg "Report.run_stream: records_per_shard must be positive";
  let folds, render = section_folds sections in
  let batch = ref [||] and fill = ref 0 in
  let in_chunk = ref 0 and total = ref 0 and chunks = ref 0 in
  let observe_batch () =
    let t0 = ref (Unix.gettimeofday ()) in
    Array.iter
      (fun (Fold f) ->
        let acc = open_acc f in
        for i = 0 to !fill - 1 do
          f.pass.observe acc (Array.unsafe_get !batch i)
        done;
        let t1 = Unix.gettimeofday () in
        f.secs <- f.secs +. (t1 -. !t0);
        t0 := t1)
      folds;
    fill := 0
  in
  let merge_chunk () =
    Array.iter
      (fun (Fold f) ->
        let acc = open_acc f in
        f.merged <- Some (match f.merged with None -> acc | Some prev -> f.pass.merge prev acc);
        f.acc <- None)
      folds
  in
  let commit () =
    Array.iter
      (fun (Fold f) ->
        Obs.span_record obs ("par.pass." ^ f.pass.name) ~seconds:f.secs;
        f.secs <- 0.)
      folds;
    (* chunk 0 becomes the root as is; every later boundary merges *)
    if !chunks = 0 then merge_chunk () else Obs.with_span obs "par.merge" merge_chunk;
    incr chunks;
    in_chunk := 0
  in
  let push r =
    if Array.length !batch = 0 then batch := Array.make batch_len r;
    Array.unsafe_set !batch !fill r;
    incr fill;
    incr total;
    incr in_chunk;
    if !in_chunk = records_per_shard then begin
      observe_batch ();
      commit ()
    end
    else if !fill = batch_len then observe_batch ()
  in
  produce push;
  if !fill > 0 then observe_batch ();
  (* an empty stream still yields root accumulators *)
  if !in_chunk > 0 || !total = 0 then commit ();
  let runs log =
    Pool.with_pool ~jobs (fun pool -> Passes.runs ~obs ?timeline ~jump_blocks:10 pool log)
  in
  (render ~runs, !total)
[@@nt.raise_ok "records_per_shard is caller configuration rejected up front"]

let run ?obs ?timeline ?jobs ?records_per_shard ~sections records =
  fst
    (run_stream ?obs ?timeline ?jobs ?records_per_shard ~sections (fun push ->
         Array.iter push records))
