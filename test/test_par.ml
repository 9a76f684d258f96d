(* Range analysis fold tests.

   The centerpiece is a differential oracle: for randomized workloads
   and shard sizes, merge-of-shards must equal the sequential
   single-pass result for every pass the report folds — exactly for
   integers, within 1e-9 relative for float sums (reassociation).
   Around it: shard-boundary unit tests (runs, names and reorder
   windows straddling a cut), report determinism + a golden file,
   ranged-vs-one-range folds with their spans and the rerun a failed
   stitch takes, and the Summary.days empty-shard regression.
   NT_PAR_TEST_JOBS sets the range count the golden report is folded
   at (CI's par job uses 4); the results must not care. *)

module Summary = Nt_analysis.Summary
module Hourly = Nt_analysis.Hourly
module Io_log = Nt_analysis.Io_log
module Runs = Nt_analysis.Runs
module Names = Nt_analysis.Names
module Lifetime = Nt_analysis.Lifetime
module Record = Nt_trace.Record
module Ops = Nt_nfs.Ops
module Types = Nt_nfs.Types
module Fh = Nt_nfs.Fh
module Ip = Nt_net.Ip_addr
module Tw = Nt_util.Trace_week
module Histogram = Nt_util.Histogram
module Stats = Nt_util.Stats
module Obs = Nt_obs.Obs
module Passes = Nt_par.Passes
module Report = Nt_par.Report
module Win = Nt_mon.Win

let test_jobs =
  match Sys.getenv_opt "NT_PAR_TEST_JOBS" with Some s -> int_of_string s | None -> 1

(* --- record constructors --- *)

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

let fattr_size size = { Types.default_fattr with size = Int64.of_int size }

let read_rec ~fh ~time ~offset ~count ~size ~eof ?(lost = false) () =
  record ~time
    ~result:
      (if lost then None
       else Some (Ok (Ops.R_read { attr = Some (fattr_size size); count; eof })))
    (Ops.Read { fh; offset = Int64.of_int offset; count })

let write_rec ~fh ~time ~offset ~count ~size ?(lost = false) () =
  record ~time
    ~result:
      (if lost then None
       else
         Some
           (Ok (Ops.R_write { count; committed = Types.File_sync; attr = Some (fattr_size size) })))
    (Ops.Write { fh; offset = Int64.of_int offset; count; stable = Types.File_sync })

let lookup_rec ~time ~dir ~name ~fh ~size ?(ok = true) () =
  record ~time
    ~result:
      (if ok then Some (Ok (Ops.R_lookup { fh; obj = Some (fattr_size size); dir = None }))
       else Some (Error Types.Err_noent))
    (Ops.Lookup { dir; name })

let create_rec ~time ~dir ~name ~fh () =
  record ~time
    ~result:(Some (Ok (Ops.R_create { fh = Some fh; attr = Some (fattr_size 0) })))
    (Ops.Create { dir; name; mode = 0o644; exclusive = false })

let remove_rec ~time ~dir ~name ?(ok = true) () =
  record ~time
    ~result:(Some (if ok then Ok Ops.R_empty else Error Types.Err_noent))
    (Ops.Remove { dir; name })

let rename_rec ~time ~from_dir ~from_name ~to_dir ~to_name () =
  record ~time ~result:(Some (Ok Ops.R_empty))
    (Ops.Rename { from_dir; from_name; to_dir; to_name })

let truncate_rec ~time ~fh ~size () =
  record ~time
    ~result:(Some (Ok (Ops.R_attr (fattr_size size))))
    (Ops.Setattr { fh; attrs = { Types.empty_sattr with set_size = Some (Int64.of_int size) } })

let getattr_rec ~time ~fh ~size () =
  record ~time ~result:(Some (Ok (Ops.R_attr (fattr_size size)))) (Ops.Getattr fh)

(* --- comparison helpers: exact for ints, 1e-9 relative for sums --- *)

let feq ?(tol = 1e-9) a b =
  (Float.is_nan a && Float.is_nan b)
  || a = b
  || Float.abs (a -. b) <= tol *. Float.max 1. (Float.max (Float.abs a) (Float.abs b))

let cki name a b = if a <> b then QCheck.Test.fail_reportf "%s: %d <> %d" name a b
let ckf name a b = if not (feq a b) then QCheck.Test.fail_reportf "%s: %.17g <> %.17g" name a b

(* --- randomized workload generator ---

   Deterministic in (seed, n). Mixes the shapes that stress shard-mode
   accumulators: pre-existing files first named (or never named)
   mid-trace, creates of fresh handles, removes of bindings learned
   shards earlier, unresolvable and failed removes, renames with
   unknown sources and live victims, truncates, lost replies, run gaps
   and hour/phase-scale time jumps. *)

type genfile = { g_fh : Fh.t; mutable g_size : int; mutable g_pos : int }

let gen_records ~seed ~n =
  let rng = Random.State.make [| 0x9e3779b9; seed; n |] in
  let dirs = [| Fh.make ~fsid:9 ~fileid:1; Fh.make ~fsid:9 ~fileid:2 |] in
  let pick_dir () = dirs.(Random.State.int rng 2) in
  let name_id = ref 0 in
  let fresh_name () =
    incr name_id;
    match Random.State.int rng 6 with
    | 0 -> Printf.sprintf "user%d.lock" !name_id
    | 1 -> Printf.sprintf "mbox%d" !name_id
    | 2 -> Printf.sprintf ".rc%d" !name_id
    | 3 -> Printf.sprintf "src%d.c" !name_id
    | 4 -> Printf.sprintf "#comp%d#" !name_id
    | _ -> Printf.sprintf "data%d" !name_id
  in
  let pre =
    Array.init 8 (fun i ->
        { g_fh = Fh.make ~fsid:9 ~fileid:(100 + i); g_size = 65536; g_pos = 0 })
  in
  let files = ref (Array.to_list pre) in
  (* (dir, name, file) bindings the stream has established *)
  let bound = ref [] in
  let next_fileid = ref 5000 in
  let t = ref Tw.week_start in
  let out = ref [] in
  let emit r = out := r :: !out in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let io ~read f time =
    let seq = Random.State.int rng 4 <> 0 in
    let offset = if seq then f.g_pos else 8192 * Random.State.int rng 32 in
    let count = [| 2048; 4096; 8192; 16384 |].(Random.State.int rng 4) in
    let lost = Random.State.int rng 20 = 0 in
    if read then begin
      let eof = offset + count >= f.g_size in
      f.g_pos <- offset + count;
      emit (read_rec ~fh:f.g_fh ~time ~offset ~count ~size:f.g_size ~eof ~lost ())
    end
    else begin
      f.g_size <- max f.g_size (offset + count);
      f.g_pos <- offset + count;
      emit (write_rec ~fh:f.g_fh ~time ~offset ~count ~size:f.g_size ~lost ())
    end
  in
  for _ = 1 to n do
    let dt =
      match Random.State.int rng 100 with
      | 0 | 1 -> 31. +. Random.State.float rng 10. (* breaks a run *)
      | 2 -> 3600. +. Random.State.float rng 400. (* next hour *)
      | 3 -> 25000. (* phase-scale jump *)
      | _ -> Random.State.float rng 0.3
    in
    t := !t +. dt;
    let time = !t in
    match Random.State.int rng 20 with
    | 0 | 1 ->
        (* lookup: bind a (possibly pre-existing) file to a name *)
        let f = pick !files in
        let d = pick_dir () and name = fresh_name () in
        emit (lookup_rec ~time ~dir:d ~name ~fh:f.g_fh ~size:f.g_size ());
        bound := (d, name, f) :: !bound
    | 2 ->
        emit (lookup_rec ~time ~dir:(pick_dir ()) ~name:(fresh_name ()) ~fh:dirs.(0) ~size:0 ~ok:false ())
    | 3 | 4 ->
        (* create: always a fresh handle *)
        incr next_fileid;
        let f = { g_fh = Fh.make ~fsid:9 ~fileid:!next_fileid; g_size = 0; g_pos = 0 } in
        let d = pick_dir () and name = fresh_name () in
        emit (create_rec ~time ~dir:d ~name ~fh:f.g_fh ());
        files := f :: !files;
        bound := (d, name, f) :: !bound
    | 5 when !bound <> [] ->
        (* remove a binding some earlier record (maybe shards ago) made *)
        let ((d, name, f) as b) = pick !bound in
        emit (remove_rec ~time ~dir:d ~name ());
        bound := List.filter (fun b' -> b' != b) !bound;
        if Random.State.bool rng then files := List.filter (fun f' -> f' != f) !files
    | 6 ->
        (* remove of a name never bound in the stream *)
        emit (remove_rec ~time ~dir:(pick_dir ()) ~name:(fresh_name ()) ())
    | 7 when !bound <> [] ->
        (* failed remove: binding survives *)
        let d, name, _ = pick !bound in
        emit (remove_rec ~time ~dir:d ~name ~ok:false ())
    | 8 when !bound <> [] ->
        (* rename a known binding, sometimes onto a live victim *)
        let ((d, name, f) as b) = pick !bound in
        let to_dir, to_name =
          if Random.State.int rng 3 = 0 && List.exists (fun b' -> b' != b) !bound then begin
            let victims = List.filter (fun b' -> b' != b) !bound in
            let ((vd, vn, _) as v) = pick victims in
            bound := List.filter (fun b' -> b' != v) !bound;
            (vd, vn)
          end
          else (pick_dir (), fresh_name ())
        in
        emit (rename_rec ~time ~from_dir:d ~from_name:name ~to_dir ~to_name ());
        bound := (to_dir, to_name, f) :: List.filter (fun b' -> b' != b) !bound
    | 9 ->
        (* rename whose source the stream never bound *)
        emit
          (rename_rec ~time ~from_dir:(pick_dir ()) ~from_name:(fresh_name ())
             ~to_dir:(pick_dir ()) ~to_name:(fresh_name ()) ())
    | 10 ->
        let f = pick !files in
        let size = if Random.State.bool rng then f.g_size / 2 else f.g_size + 8192 in
        f.g_size <- size;
        emit (truncate_rec ~time ~fh:f.g_fh ~size ())
    | 11 ->
        let f = pick !files in
        emit (getattr_rec ~time ~fh:f.g_fh ~size:f.g_size ())
    | 12 | 13 | 14 | 15 -> io ~read:true (pick !files) time
    | _ -> io ~read:false (pick !files) time
  done;
  Array.of_list (List.rev !out)

(* --- sequential vs sharded harness --- *)

let run_seq (pass : 'a Passes.pass) records =
  let acc = pass.Passes.init () in
  Array.iter (pass.Passes.observe acc) records;
  acc

(* Cut [records] into [shard_len]-record shards: the root accumulator
   on shard 0, [init_shard] after it, then a left-fold of [merge] in
   shard order — the fold Report.run_ranges makes over its ranges. *)
let run_sharded (pass : 'a Passes.pass) ~shard_len records =
  let n = Array.length records in
  let shard i =
    let acc = if i = 0 then pass.init () else pass.init_shard () in
    for j = i * shard_len to min n ((i + 1) * shard_len) - 1 do
      pass.observe acc records.(j)
    done;
    acc
  in
  let acc = ref (shard 0) in
  for i = 1 to ((n + shard_len - 1) / shard_len) - 1 do
    acc := pass.merge !acc (shard i)
  done;
  !acc

(* --- per-pass equivalence checks --- *)

let check_summary_eq s p =
  cki "total_ops" (Summary.total_ops s) (Summary.total_ops p);
  cki "read_ops" (Summary.read_ops s) (Summary.read_ops p);
  cki "write_ops" (Summary.write_ops s) (Summary.write_ops p);
  cki "unique_files" (Summary.unique_files_accessed s) (Summary.unique_files_accessed p);
  ckf "bytes_read" (Summary.bytes_read s) (Summary.bytes_read p);
  ckf "bytes_written" (Summary.bytes_written s) (Summary.bytes_written p);
  ckf "days" (Summary.days s) (Summary.days p);
  ckf "data_ops_pct" (Summary.data_ops_pct s) (Summary.data_ops_pct p);
  let by_proc l = List.sort compare (List.map (fun (p, n) -> (Nt_nfs.Proc.to_string p, n)) l) in
  if by_proc (Summary.top_procs s) <> by_proc (Summary.top_procs p) then
    QCheck.Test.fail_reportf "top_procs differ"

let check_hourly_eq s p =
  let hs = Hourly.series s and hp = Hourly.series p in
  cki "series length" (List.length hs) (List.length hp);
  List.iter2
    (fun (a : Hourly.hour_point) (b : Hourly.hour_point) ->
      cki "hour" a.hour b.hour;
      cki "ops" a.ops b.ops;
      cki "reads" a.reads b.reads;
      cki "writes" a.writes b.writes;
      ckf "bytes_read" a.bytes_read b.bytes_read;
      ckf "bytes_written" a.bytes_written b.bytes_written)
    hs hp

let check_io_log_eq s p =
  cki "files" (Io_log.files s) (Io_log.files p);
  cki "accesses" (Io_log.accesses s) (Io_log.accesses p);
  let fs = Io_log.sorted_files s and fp = Io_log.sorted_files p in
  Array.iteri
    (fun i (fh, aa) ->
      let fh', ab = fp.(i) in
      if not (Fh.equal fh fh') then QCheck.Test.fail_reportf "file %d handle differs" i;
      if aa <> ab then QCheck.Test.fail_reportf "file %d access list differs" i)
    fs

let check_runs_eq rs rp =
  cki "run count" (List.length rs) (List.length rp);
  (* order differs (hash order vs handle order): compare as multisets *)
  if List.sort compare rs <> List.sort compare rp then
    QCheck.Test.fail_reportf "run multiset differs";
  let ts = Runs.table3 rs and tp = Runs.table3 rp in
  cki "total_runs" ts.total_runs tp.total_runs;
  ckf "reads_pct" ts.reads_pct tp.reads_pct;
  ckf "writes_pct" ts.writes_pct tp.writes_pct;
  ckf "rw_pct" ts.rw_pct tp.rw_pct;
  ckf "read.entire" ts.read.entire_pct tp.read.entire_pct;
  ckf "write.entire" ts.write.entire_pct tp.write.entire_pct

let check_names_eq s p =
  cki "created_deleted_total" (Names.created_deleted_total s) (Names.created_deleted_total p);
  ckf "lock_created_deleted_pct" (Names.lock_created_deleted_pct s)
    (Names.lock_created_deleted_pct p);
  ckf "lock_lifetime_under" (Names.lock_lifetime_under s 0.4) (Names.lock_lifetime_under p 0.4);
  ckf "composer_size_under" (Names.composer_size_under s 8192.)
    (Names.composer_size_under p 8192.);
  List.iter2
    (fun (c, (a : Names.category_stats)) (c', (b : Names.category_stats)) ->
      if c <> c' then QCheck.Test.fail_reportf "category order differs";
      let n = Names.category_to_string c in
      cki (n ^ ".files_seen") a.files_seen b.files_seen;
      cki (n ^ ".created_deleted") a.created_deleted b.created_deleted;
      ckf (n ^ ".median_size") a.median_size b.median_size;
      ckf (n ^ ".median_lifetime") a.median_lifetime b.median_lifetime;
      ckf (n ^ ".read_only_pct") a.read_only_pct b.read_only_pct;
      ckf (n ^ ".write_only_pct") a.write_only_pct b.write_only_pct)
    (Names.stats s) (Names.stats p);
  List.iter
    (fun c ->
      ckf
        (Names.category_to_string c ^ ".byte_share")
        (Names.byte_share s c) (Names.byte_share p c))
    Names.all_categories

(* --- merge-equivalence properties (the differential oracle) --- *)

let workload_arb = QCheck.(triple (int_range 0 400) (int_range 1 97) (int_range 0 9999))

let prop_pass name pass check =
  QCheck.Test.make ~count:40 ~name
    workload_arb
    (fun (n, shard_len, seed) ->
      let records = gen_records ~seed ~n in
      check (run_seq pass records) (run_sharded pass ~shard_len records);
      true)

let lifetime_cfg = Lifetime.config ~phase1_start:Tw.week_start

let prop_summary = prop_pass "summary: merge of shards == sequential" Passes.summary check_summary_eq
let prop_hourly = prop_pass "hourly: merge of shards == sequential" Passes.hourly check_hourly_eq
let prop_io_log = prop_pass "io_log: merge of shards == sequential" Passes.io_log check_io_log_eq
let prop_names = prop_pass "names: merge of shards == sequential" Passes.names check_names_eq
let prop_runs =
  QCheck.Test.make ~count:40 ~name:"runs: chunked over merged log == sequential" workload_arb
    (fun (n, shard_len, seed) ->
      let records = gen_records ~seed ~n in
      let log_seq = run_seq Passes.io_log records in
      let log_par = run_sharded Passes.io_log ~shard_len records in
      let rs = Runs.analyze ~window:0.01 ~jump_blocks:10 log_seq in
      let rp = Passes.runs ~jump_blocks:10 log_par in
      check_runs_eq rs rp;
      true)

(* --- merge laws ---

   ntcheck's merge-law-missing rule requires every interface exposing
   [merge : t -> t -> t] to be registered through [prop_merge_laws];
   each call below names the module's merge directly so the typedtree
   scan can attribute the coverage. *)

let slice records a b = Array.sub records a (b - a)

let build_with init observe records =
  let acc = init () in
  Array.iter (observe acc) records;
  acc

(* Associativity and neutral elements over a random 3-way split of a
   random workload. Accumulators are rebuilt from scratch on each side
   of every law because merges may mutate their first argument.
   Root-left merges (Names rejects shard<>shard) get the fold
   form of associativity: folding the same records through two
   different tail splits must agree. *)
let prop_merge_laws name ~symmetric ~build ~build_shard ~empty ~empty_shard ~merge ~eq =
  QCheck.Test.make ~count:40 ~name:(name ^ ": merge laws (assoc + neutral)") workload_arb
    (fun (n, cut, seed) ->
      let records = gen_records ~seed ~n in
      let len = Array.length records in
      let i = cut mod (len + 1) in
      let j = i + ((len - i) / 2) in
      let r1 () = build (slice records 0 i)
      and s2 () = build_shard (slice records i j)
      and s3 () = build_shard (slice records j len) in
      eq (build records) (merge (build records) (empty_shard ()));
      eq (build records) (merge (empty ()) (build_shard records));
      (if symmetric then
         eq
           (merge (merge (r1 ()) (s2 ())) (s3 ()))
           (merge (r1 ()) (merge (s2 ()) (s3 ())))
       else
         let j' = i + ((len - i) / 3) in
         let s2' () = build_shard (slice records i j')
         and s3' () = build_shard (slice records j' len) in
         eq
           (merge (merge (r1 ()) (s2 ())) (s3 ()))
           (merge (merge (r1 ()) (s2' ())) (s3' ())));
      true)

let law_summary =
  prop_merge_laws "summary" ~symmetric:true
    ~build:(build_with Summary.create Summary.observe)
    ~build_shard:(build_with Summary.create Summary.observe)
    ~empty:Summary.create ~empty_shard:Summary.create ~merge:Summary.merge
    ~eq:check_summary_eq

let law_hourly =
  prop_merge_laws "hourly" ~symmetric:true
    ~build:(build_with Hourly.create Hourly.observe)
    ~build_shard:(build_with Hourly.create Hourly.observe)
    ~empty:Hourly.create ~empty_shard:Hourly.create ~merge:Hourly.merge ~eq:check_hourly_eq

let law_io_log =
  prop_merge_laws "io_log" ~symmetric:true
    ~build:(build_with Io_log.create Io_log.observe)
    ~build_shard:(build_with Io_log.create Io_log.observe)
    ~empty:Io_log.create ~empty_shard:Io_log.create ~merge:Io_log.merge ~eq:check_io_log_eq

let law_names =
  prop_merge_laws "names" ~symmetric:false
    ~build:(build_with Names.create Names.observe)
    ~build_shard:(build_with Names.create_shard Names.observe)
    ~empty:Names.create ~empty_shard:Names.create_shard ~merge:Names.merge
    ~eq:check_names_eq

let check_win_row name (a : Win.row) (b : Win.row) =
  cki (name ^ ".ops") a.Win.ops b.Win.ops;
  cki (name ^ ".read_bytes") a.Win.read_bytes b.Win.read_bytes;
  cki (name ^ ".write_bytes") a.Win.write_bytes b.Win.write_bytes

let check_win_eq a b =
  (match (Win.span a, Win.span b) with
  | None, None -> ()
  | Some (lo1, hi1), Some (lo2, hi2) ->
      ckf "span.lo" lo1 lo2;
      ckf "span.hi" hi1 hi2
  | _ -> QCheck.Test.fail_reportf "span: one side empty");
  cki "total_ops" (Win.total_ops a) (Win.total_ops b);
  cki "read_ops" (Win.read_ops a) (Win.read_ops b);
  cki "read_bytes" (Win.read_bytes a) (Win.read_bytes b);
  cki "write_ops" (Win.write_ops a) (Win.write_ops b);
  cki "write_bytes" (Win.write_bytes a) (Win.write_bytes b);
  cki "commit_ops" (Win.commit_ops a) (Win.commit_ops b);
  cki "lost_replies" (Win.lost_replies a) (Win.lost_replies b);
  List.iter2
    (fun (s1, r1) (s2, r2) ->
      cki "stable.kind" (Types.stable_how_to_int s1) (Types.stable_how_to_int s2);
      check_win_row "stable" r1 r2)
    (Win.writes_by_stable a) (Win.writes_by_stable b);
  List.iter
    (fun table ->
      let tn = Win.table_name table in
      cki (tn ^ ".size") (Win.table_size a table) (Win.table_size b table);
      cki (tn ^ ".evictions") (Win.evictions a table) (Win.evictions b table);
      check_win_row (tn ^ ".other") (Win.other_row a table) (Win.other_row b table);
      let ta = Win.top a table max_int and tb = Win.top b table max_int in
      cki (tn ^ ".rows") (List.length ta) (List.length tb);
      List.iter2
        (fun (k1, r1) (k2, r2) ->
          if k1 <> k2 then QCheck.Test.fail_reportf "%s.key: %s <> %s" tn k1 k2;
          check_win_row (tn ^ ".row") r1 r2)
        ta tb)
    Win.all_tables

(* Tight caps so the laws hold even while the eviction machinery is
   active on every build: capping happens at observe time and [merge]
   stays an exact sum, which is exactly the design the monitor's ring
   relies on. [merge] must also leave its second argument unchanged:
   [Ring.totals] merges live windows into a fresh accumulator. *)
let law_win =
  let win_caps = { Win.client_cap = 3; uid_cap = 3; fs_cap = 2; proc_cap = 4 } in
  let build = build_with (fun () -> Win.create ~caps:win_caps ()) Win.observe in
  let empty () = Win.create ~caps:win_caps () in
  let encode w = Nt_obs.Obs.Json.to_string (Win.to_json w) in
  prop_merge_laws "win" ~symmetric:true ~build ~build_shard:build ~empty ~empty_shard:empty
    ~merge:(fun a b ->
      let before = encode b in
      let m = Win.merge a b in
      if encode b <> before then QCheck.Test.fail_reportf "win: merge changed its second argument";
      m)
    ~eq:check_win_eq

(* --- footprint accounting ---

   ntcheck's footprint-missing rule requires every merge-bearing
   interface to expose state-footprint accounting and have it
   registered through [prop_footprint]; each call below names the
   module's footprint directly so the typedtree scan can attribute the
   coverage.  The invariant is deliberately weak: [words] is a
   structural estimate and is NOT monotone over record prefixes (Names
   resolves orphans away, shrinking words), but an accumulator that
   reports zero words or fewer words than tracked entries is lying to
   the nt_state_* gauges. *)

let prop_footprint name ~build ~footprint =
  QCheck.Test.make ~count:40 ~name:(name ^ ": footprint honesty (words >= cards, > 0)")
    workload_arb
    (fun (n, _cut, seed) ->
      let records = gen_records ~seed ~n in
      let fp = footprint (build records) in
      if fp.Nt_obs.Footprint.words <= 0 then
        QCheck.Test.fail_reportf "%s: words = %d, state invisible to gauges" name
          fp.Nt_obs.Footprint.words;
      if fp.Nt_obs.Footprint.cards < 0 then
        QCheck.Test.fail_reportf "%s: negative cardinality %d" name fp.Nt_obs.Footprint.cards;
      if fp.Nt_obs.Footprint.words < fp.Nt_obs.Footprint.cards then
        QCheck.Test.fail_reportf "%s: %d entries in %d words undercounts heap" name
          fp.Nt_obs.Footprint.cards fp.Nt_obs.Footprint.words;
      true)

let fp_summary =
  prop_footprint "summary"
    ~build:(build_with Summary.create Summary.observe)
    ~footprint:Summary.footprint

let fp_hourly =
  prop_footprint "hourly"
    ~build:(build_with Hourly.create Hourly.observe)
    ~footprint:Hourly.footprint

let fp_io_log =
  prop_footprint "io_log"
    ~build:(build_with Io_log.create Io_log.observe)
    ~footprint:Io_log.footprint

let fp_names =
  prop_footprint "names"
    ~build:(build_with Names.create Names.observe)
    ~footprint:Names.footprint

let fp_lifetime =
  prop_footprint "lifetime"
    ~build:(build_with (fun () -> Lifetime.create lifetime_cfg) Lifetime.observe)
    ~footprint:Lifetime.footprint

let fp_histogram =
  prop_footprint "histogram"
    ~build:(fun records ->
      let h = Histogram.log2_buckets ~lo:1. ~hi:(2. ** 24.) in
      Array.iter
        (fun (r : Record.t) -> Histogram.add h (r.Record.time -. Tw.week_start +. 1.))
        records;
      h)
    ~footprint:Histogram.footprint

let fp_stats =
  prop_footprint "stats"
    ~build:(fun records ->
      let t = Stats.create () in
      Array.iter (fun (r : Record.t) -> Stats.add t (r.Record.time -. Tw.week_start)) records;
      t)
    ~footprint:Stats.footprint

let fp_win =
  let win_caps = { Win.client_cap = 3; uid_cap = 3; fs_cap = 2; proc_cap = 4 } in
  prop_footprint "win"
    ~build:(build_with (fun () -> Win.create ~caps:win_caps ()) Win.observe)
    ~footprint:Win.footprint

(* --- shard-boundary unit tests --- *)

let fh_a = Fh.make ~fsid:9 ~fileid:201
let dir0 = Fh.make ~fsid:9 ~fileid:1

let check_unit f = fun () -> f ()

(* A sequential run straddling the cut must not be split: the log merge
   carries the open run across the boundary. *)
let test_run_straddles_boundary () =
  let records =
    Array.init 10 (fun i ->
        read_rec ~fh:fh_a ~time:(Tw.week_start +. float_of_int i) ~offset:(i * 8192) ~count:8192
          ~size:(1 lsl 20) ~eof:false ())
  in
  let log_par = run_sharded Passes.io_log ~shard_len:5 records in
  let rp = Runs.analyze ~window:0.01 ~jump_blocks:10 log_par in
  Alcotest.(check int) "one run despite the cut" 1 (List.length rp);
  let r = List.hd rp in
  Alcotest.(check int) "all accesses in it" 10 r.Runs.accesses;
  check_runs_eq (Runs.analyze ~window:0.01 ~jump_blocks:10 (run_seq Passes.io_log records)) rp

(* A reorder-window inversion exactly at the cut: the merged per-file
   list must equal the sequential one, so the window sort fixes it. *)
let test_reorder_window_straddles_boundary () =
  let t0 = Tw.week_start in
  let records =
    [|
      read_rec ~fh:fh_a ~time:t0 ~offset:0 ~count:8192 ~size:(1 lsl 20) ~eof:false ();
      read_rec ~fh:fh_a ~time:(t0 +. 0.001) ~offset:16384 ~count:8192 ~size:(1 lsl 20) ~eof:false ();
      read_rec ~fh:fh_a ~time:(t0 +. 0.002) ~offset:8192 ~count:8192 ~size:(1 lsl 20) ~eof:false ();
      read_rec ~fh:fh_a ~time:(t0 +. 0.003) ~offset:24576 ~count:8192 ~size:(1 lsl 20) ~eof:false ();
    |]
  in
  let log_par = run_sharded Passes.io_log ~shard_len:2 records in
  check_io_log_eq (run_seq Passes.io_log records) log_par;
  let _, accesses = (Io_log.sorted_files log_par).(0) in
  let sorted, swaps = Io_log.sort_window 0.01 accesses in
  Alcotest.(check int) "window sort sees the straddling swap" 1 swaps;
  Alcotest.(check (list int)) "offsets ascend after the sort" [ 0; 8192; 16384; 24576 ]
    (Array.to_list (Array.map (fun (a : Io_log.access) -> a.Io_log.offset) sorted))

(* A remove whose binding was learned a shard earlier must defer and
   then kill the right file at merge. *)
let test_names_remove_across_boundary () =
  let t0 = Tw.week_start in
  let records =
    [|
      create_rec ~time:(t0 +. 0.1) ~dir:dir0 ~name:"x.lock" ~fh:fh_a ();
      write_rec ~fh:fh_a ~time:(t0 +. 0.2) ~offset:0 ~count:100 ~size:100 ();
      remove_rec ~time:(t0 +. 0.3) ~dir:dir0 ~name:"x.lock" ();
    |]
  in
  let s = run_seq Passes.names records and p = run_sharded Passes.names ~shard_len:1 records in
  check_names_eq s p;
  Alcotest.(check int) "created+deleted seen through the cut" 1 (Names.created_deleted_total p)

(* Regression: qcheck counterexample (67, 29, 9417). A file removed
   both by a shard-local REMOVE and by a deferred one replayed at
   merge must keep the earliest deletion time, like the sequential
   pass does (first successful remove wins). *)
let test_names_earliest_delete_wins () =
  let records = gen_records ~seed:9417 ~n:67 in
  check_names_eq (run_seq Passes.names records)
    (run_sharded Passes.names ~shard_len:29 records)

(* --- Summary.days regression: empty shards must be merge-neutral --- *)

let test_days_empty_shard_neutral () =
  let t0 = Tw.week_start in
  let root = Summary.create () in
  Summary.observe root (getattr_rec ~time:t0 ~fh:fh_a ~size:0 ());
  Summary.observe root (getattr_rec ~time:(t0 +. 10.) ~fh:fh_a ~size:0 ());
  let merged = Summary.merge root (Summary.create ()) in
  (* the empty shard's >= 1 microsecond clamp must not inflate the span *)
  Alcotest.(check (float 1e-12)) "span unchanged by empty shard" (10. /. 86400.)
    (Summary.days merged);
  let both_empty = Summary.merge (Summary.create ()) (Summary.create ()) in
  Alcotest.(check (float 1e-12)) "empty merge == empty sequential" (Summary.days (Summary.create ()))
    (Summary.days both_empty)

(* An empty shard between two populated ones is neutral as well. *)
let test_zero_length_slice_is_neutral () =
  let records = gen_records ~seed:3 ~n:40 in
  let build = build_with Summary.create Summary.observe in
  let p =
    Summary.merge
      (Summary.merge (build (slice records 0 17)) (Summary.create ()))
      (build (slice records 17 (Array.length records)))
  in
  check_summary_eq (run_seq Passes.summary records) p

(* --- determinism and the golden report --- *)

let golden_records () = gen_records ~seed:7 ~n:400

let render_report ~jobs records =
  let sections = [ `Summary; `Runs; `Names; `Hourly ] in
  Report.run ~jobs ~sections records
  |> List.map (fun (s, text) -> Printf.sprintf "== %s ==\n%s" (Report.section_name s) text)
  |> String.concat "\n"

let test_report_deterministic () =
  let records = golden_records () in
  let a = render_report ~jobs:1 records in
  let b = render_report ~jobs:4 records in
  let c = render_report ~jobs:4 records in
  Alcotest.(check string) "--jobs 1 == --jobs 4" a b;
  Alcotest.(check string) "repeated --jobs 4 identical" b c

let golden_path = "golden/nfsstats_report.golden"

let test_report_matches_golden () =
  let got = render_report ~jobs:test_jobs (golden_records ()) in
  (* NT_PAR_GOLDEN_UPDATE=<abs path> rewrites the source-tree golden. *)
  (match Sys.getenv_opt "NT_PAR_GOLDEN_UPDATE" with
  | Some path ->
      let oc = open_out path in
      output_string oc got;
      close_out oc
  | None -> ());
  let ic = open_in_bin golden_path in
  let want = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check string) "report matches golden file" want got

(* The range fold must render the same text at any range count:
   ranged = one range (no merges), with one par.pass span per range —
   an empty range still folds and times its accumulators — and one
   par.merge span per merge. *)
let all_sections = [ `Summary; `Runs; `Names; `Hourly ]

let render texts =
  texts
  |> List.map (fun (s, text) -> Printf.sprintf "== %s ==\n%s" (Report.section_name s) text)
  |> String.concat "\n"

let span_count snap name =
  match Obs.get_span snap name with None -> 0 | Some sp -> sp.Obs.count

let check_ranged_matches_single ~jobs records =
  let n = Array.length records in
  let ranges = Report.range_count jobs in
  let label = Printf.sprintf "%d records, %d ranges" n ranges in
  let want, count =
    Report.run_stream ~sections:all_sections (fun push -> Array.iter push records)
  in
  Alcotest.(check int) (label ^ ": record count") n count;
  let obs = Obs.create () in
  let texts = Report.run ~obs ~jobs ~sections:all_sections records in
  Alcotest.(check string) (label ^ ": ranged = one range") (render want) (render texts);
  let snap = Obs.snapshot obs in
  List.iter
    (fun pass ->
      Alcotest.(check int)
        (label ^ ": one " ^ pass ^ " span per range")
        ranges
        (span_count snap ("par.pass." ^ pass)))
    [ "summary"; "hourly"; "names"; "io_log" ];
  Alcotest.(check int) (label ^ ": one merge span per merge") (ranges - 1)
    (span_count snap "par.merge");
  Alcotest.(check int) (label ^ ": one runs finalize") 1 (span_count snap "par.pass.runs")

let test_ranged_matches_single () =
  let records = golden_records () in
  List.iter
    (fun jobs ->
      check_ranged_matches_single ~jobs records;
      check_ranged_matches_single ~jobs (Array.sub records 0 3);
      check_ranged_matches_single ~jobs [||])
    [ 1; 2; 3; 4; 7; 64 ]

(* The fold runs range 0 on the calling domain and every later range
   on a domain of its own, and merges spans and accumulators only
   after all of them joined. *)
let test_range_fold_instruments_obs () =
  let records = gen_records ~seed:11 ~n:120 in
  let obs = Obs.create () in
  let tl = Nt_obs.Timeline.create () in
  let domains = Array.make 3 (Domain.self ()) in
  let _texts, n, counts =
    Report.run_ranges ~obs ~timeline:tl ~ranges:3 ~sections:[ `Summary; `Runs ] (fun ~ranges i push ->
        domains.(i) <- Domain.self ();
        let lo = 120 * i / ranges and hi = 120 * (i + 1) / ranges in
        for j = lo to hi - 1 do
          push records.(j)
        done;
        hi - lo)
  in
  Alcotest.(check int) "record count" 120 n;
  Alcotest.(check (array int)) "range results in range order" [| 40; 40; 40 |] counts;
  Alcotest.(check bool) "range 0 on the calling domain" true (domains.(0) = Domain.self ());
  Alcotest.(check bool) "later ranges on domains of their own" true
    (domains.(1) <> domains.(0) && domains.(2) <> domains.(0) && domains.(1) <> domains.(2));
  let snap = Obs.snapshot obs in
  Alcotest.(check int) "one summary span per range" 3 (span_count snap "par.pass.summary");
  Alcotest.(check int) "one io_log span per range" 3 (span_count snap "par.pass.io_log");
  Alcotest.(check int) "one merge span per merge" 2 (span_count snap "par.merge");
  Alcotest.(check int) "one runs finalize span" 1 (span_count snap "par.pass.runs");
  List.iter
    (fun name ->
      if Obs.sum_counter snap name <> 0 then Alcotest.failf "%s is gone, yet counted" name)
    [ "par.tasks"; "par.shards" ];
  Alcotest.(check (option (float 0.))) "no par.jobs gauge" None (Obs.get_gauge snap "par.jobs");
  Alcotest.(check int) "one par.range interval per range" 6 (Nt_obs.Timeline.events tl);
  Alcotest.(check int) "each on its domain's track" 3 (Nt_obs.Timeline.tracks_count tl)

(* Ranges that do not stitch are thrown away and the input is read
   again as one range: the report and the spans are the one-range
   ones. *)
let test_unstitched_ranges_rerun () =
  let records = golden_records () in
  let n = Array.length records in
  let want, _ = Report.run_stream ~sections:all_sections (fun push -> Array.iter push records) in
  let obs = Obs.create () in
  let texts, count, results =
    Report.run_ranges ~obs ~stitched:(fun _ -> false) ~ranges:4 ~sections:all_sections
      (fun ~ranges i push ->
        for j = n * i / ranges to (n * (i + 1) / ranges) - 1 do
          push records.(j)
        done;
        ranges)
  in
  Alcotest.(check string) "rerun = one range" (render want) (render texts);
  Alcotest.(check int) "record count" n count;
  Alcotest.(check (array int)) "the one-range result" [| 1 |] results;
  let snap = Obs.snapshot obs in
  Alcotest.(check int) "spans of the rerun only" 1 (span_count snap "par.pass.summary");
  Alcotest.(check int) "no merges" 0 (span_count snap "par.merge")

let () =
  Alcotest.run "nt_par"
    [
      ( "merge-equivalence",
        [
          QCheck_alcotest.to_alcotest prop_summary;
          QCheck_alcotest.to_alcotest prop_hourly;
          QCheck_alcotest.to_alcotest prop_io_log;
          QCheck_alcotest.to_alcotest prop_names;
          QCheck_alcotest.to_alcotest prop_runs;
        ] );
      ( "merge-laws",
        [
          QCheck_alcotest.to_alcotest law_summary;
          QCheck_alcotest.to_alcotest law_hourly;
          QCheck_alcotest.to_alcotest law_io_log;
          QCheck_alcotest.to_alcotest law_names;
          QCheck_alcotest.to_alcotest law_win;
        ] );
      ( "footprints",
        [
          QCheck_alcotest.to_alcotest fp_summary;
          QCheck_alcotest.to_alcotest fp_hourly;
          QCheck_alcotest.to_alcotest fp_io_log;
          QCheck_alcotest.to_alcotest fp_names;
          QCheck_alcotest.to_alcotest fp_lifetime;
          QCheck_alcotest.to_alcotest fp_histogram;
          QCheck_alcotest.to_alcotest fp_stats;
          QCheck_alcotest.to_alcotest fp_win;
        ] );
      ( "shard-boundary",
        [
          Alcotest.test_case "run straddles a cut" `Quick (check_unit test_run_straddles_boundary);
          Alcotest.test_case "reorder window straddles a cut" `Quick
            (check_unit test_reorder_window_straddles_boundary);
          Alcotest.test_case "deferred remove resolves at merge" `Quick
            (check_unit test_names_remove_across_boundary);
          Alcotest.test_case "earliest delete wins at merge" `Quick
            (check_unit test_names_earliest_delete_wins);
        ] );
      ( "days-regression",
        [
          Alcotest.test_case "empty shard is merge-neutral" `Quick
            (check_unit test_days_empty_shard_neutral);
          Alcotest.test_case "zero-length slice is neutral" `Quick
            (check_unit test_zero_length_slice_is_neutral);
        ] );
      ( "determinism",
        [
          Alcotest.test_case "jobs=1 == jobs=4, byte for byte" `Quick
            (check_unit test_report_deterministic);
          Alcotest.test_case "report matches golden file" `Quick
            (check_unit test_report_matches_golden);
        ] );
      ( "observability",
        [
          Alcotest.test_case "range fold exports spans" `Quick
            (check_unit test_range_fold_instruments_obs);
          Alcotest.test_case "ranged run = one range" `Quick
            (check_unit test_ranged_matches_single);
          Alcotest.test_case "unstitched ranges rerun as one" `Quick
            (check_unit test_unstitched_ranges_rerun);
        ] );
    ]
