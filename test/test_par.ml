(* Range analysis fold tests.

   The centerpiece is a differential oracle: for randomized workloads
   and shard sizes, merge-of-shards must equal the sequential
   single-pass result for every pass the report folds — exactly for
   integers, within 1e-9 relative for float sums (reassociation).
   Around it: the online runs fold against the batch algorithm it
   replaced (runs_oracle.ml) over out-of-order input, shard-boundary
   unit tests (runs, names and reorder windows straddling a cut),
   report determinism + a golden file, ranged-vs-one-range folds with
   their spans and the reruns a failed stitch takes, and the
   Summary.days empty-shard regression.
   NT_PAR_TEST_JOBS sets the range count the golden report is folded
   at (CI's par job uses 4); the results must not care. *)

module Summary = Nt_analysis.Summary
module Hourly = Nt_analysis.Hourly
module Runs = Nt_analysis.Runs
module Names = Nt_analysis.Names
module Lifetime = Nt_analysis.Lifetime
module Reorder = Nt_analysis.Reorder
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
  let sh = Option.get pass.shards in
  let shard i =
    let acc = if i = 0 then pass.init () else sh.init_shard () in
    for j = i * shard_len to min n ((i + 1) * shard_len) - 1 do
      pass.observe acc records.(j)
    done;
    acc
  in
  let acc = ref (shard 0) in
  for i = 1 to ((n + shard_len - 1) / shard_len) - 1 do
    acc := sh.merge !acc (shard i)
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

(* Runs folds compare once every open run is counted: Table 3 under
   both rules, the Figure 2 curve, the Figure 5 curve and the window
   swaps; [finish] consumes both sides. *)
let check_table3 name (s : Runs.table3) (p : Runs.table3) =
  cki (name ^ ".total_runs") s.total_runs p.total_runs;
  ckf (name ^ ".reads_pct") s.reads_pct p.reads_pct;
  ckf (name ^ ".writes_pct") s.writes_pct p.writes_pct;
  ckf (name ^ ".rw_pct") s.rw_pct p.rw_pct;
  List.iter
    (fun (row, (a : Runs.table3_row), (b : Runs.table3_row)) ->
      ckf (name ^ "." ^ row ^ ".entire") a.entire_pct b.entire_pct;
      ckf (name ^ "." ^ row ^ ".sequential") a.sequential_pct b.sequential_pct;
      ckf (name ^ "." ^ row ^ ".random") a.random_pct b.random_pct)
    [ ("read", s.read, p.read); ("write", s.write, p.write); ("rw", s.rw, p.rw) ]

let check_curves name a b =
  List.iter2
    (fun (series, xs) (_, ys) ->
      Array.iteri (fun i x -> ckf (Printf.sprintf "%s.%s.(%d)" name series i) x ys.(i)) xs)
    a b

let size_curve (c : Runs.size_curve) =
  [ ("total", c.total); ("entire", c.entire); ("sequential", c.sequential); ("random", c.random) ]

let seq_curve (c : Nt_analysis.Seqmetric.curve) =
  [
    ("read_allowed", c.read_allowed); ("read_strict", c.read_strict);
    ("write_allowed", c.write_allowed); ("write_strict", c.write_strict);
    ("cum_total_runs", c.cum_total_runs); ("cum_read_runs", c.cum_read_runs);
    ("cum_write_runs", c.cum_write_runs);
  ]

let check_runs_eq s p =
  if not (Runs.stitched s && Runs.stitched p) then
    QCheck.Test.fail_reportf "runs: a merge did not stitch";
  Runs.finish s;
  Runs.finish p;
  cki "swaps" (Runs.swaps s) (Runs.swaps p);
  check_table3 "table3" (Runs.table3 s) (Runs.table3 p);
  check_table3 "table3 strict" (Runs.table3 ~strict:true s) (Runs.table3 ~strict:true p);
  check_curves "fig2" (size_curve (Runs.by_file_size s)) (size_curve (Runs.by_file_size p));
  check_curves "fig5" (seq_curve (Runs.sequentiality s)) (seq_curve (Runs.sequentiality p))

(* Reorder folds compare once finished: the swaps at every window and
   the out-of-order pairs. *)
let check_reorder_eq s p =
  if not (Reorder.stitched s && Reorder.stitched p) then
    QCheck.Test.fail_reportf "reorder: a merge did not stitch";
  Reorder.finish s;
  Reorder.finish p;
  List.iter2
    (fun (w, a) (_, b) -> ckf (Printf.sprintf "swapped %.0f ms" w) a b)
    (Reorder.swapped s) (Reorder.swapped p);
  ckf "out_of_order" (Reorder.out_of_order s) (Reorder.out_of_order p)

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
let prop_names = prop_pass "names: merge of shards == sequential" Passes.names check_names_eq
let prop_runs = prop_pass "runs: merge of shards == sequential" (Passes.runs ()) check_runs_eq

let prop_reorder = prop_pass "reorder: merge of shards == sequential" Passes.reorder check_reorder_eq

(* --- the runs fold against the batch oracle ---

   I/O on a few files with what a capture delivers out of order or
   empty: equal times, reorder-window jitter, run-ending gaps, EOF
   reads, zero-byte and lost-reply I/O, and, unless [sorted], backward
   time jumps of up to 40 s. *)
let gen_io ~seed ~n ~sorted =
  let rng = Random.State.make [| 0x5eed; seed; n |] in
  let fhs = Array.init 4 (fun i -> Fh.make ~fsid:9 ~fileid:(300 + i)) in
  let sizes = Array.make 4 (16 * 8192) and pos = Array.make 4 0 in
  let t = ref Tw.week_start in
  Array.init n (fun _ ->
      (t :=
         !t
         +.
         match Random.State.int rng 20 with
         | 0 | 1 | 2 -> 0.
         | 3 -> 31. +. Random.State.float rng 9.
         | 4 when not sorted -> -.Random.State.float rng 40.
         | 5 | 6 | 7 -> 1. +. Random.State.float rng 4.
         | _ -> Random.State.float rng 0.004);
      let f = Random.State.int rng 4 in
      let fh = fhs.(f) and time = !t in
      let offset =
        match Random.State.int rng 6 with
        | 0 -> 8192 * Random.State.int rng 20
        | 1 -> pos.(f) + (8192 * Random.State.int rng 12)
        | _ -> pos.(f)
      in
      let count =
        if Random.State.int rng 15 = 0 then 0
        else [| 4096; 8192; 8192; 7168 |].(Random.State.int rng 4)
      in
      let lost = Random.State.int rng 12 = 0 in
      pos.(f) <- offset + count;
      if Random.State.int rng 3 = 0 then begin
        sizes.(f) <- max sizes.(f) (offset + count);
        write_rec ~fh ~time ~offset ~count ~size:sizes.(f) ~lost ()
      end
      else begin
        let eof = offset + count >= sizes.(f) || Random.State.int rng 25 = 0 in
        if eof then pos.(f) <- 0;
        read_rec ~fh ~time ~offset ~count ~size:sizes.(f) ~eof ~lost ()
      end)

let prop_runs_oracle =
  QCheck.Test.make ~count:200 ~name:"runs: online fold == batch oracle"
    QCheck.(
      pair (quad (int_range 0 300) (int_range 1 6) (int_range 0 9999) bool)
        (oneofl [ 0.; 0.005; 0.01 ]))
    (fun ((n, k, seed, sorted), window) ->
      let records = gen_io ~seed ~n ~sorted in
      let rng = Random.State.make [| seed; k |] in
      let cuts = List.sort compare (List.init (k - 1) (fun _ -> Random.State.int rng (n + 1))) in
      let bounds = Array.of_list ((0 :: cuts) @ [ n ]) in
      let fold i =
        let t = if i = 0 then Runs.create ~window () else Runs.create_shard ~window () in
        Array.iter (Runs.observe t) (Array.sub records bounds.(i) (bounds.(i + 1) - bounds.(i)));
        t
      in
      let merged = ref (fold 0) in
      for i = 1 to k - 1 do
        merged := Runs.merge !merged (fold i)
      done;
      let t = !merged in
      if sorted && not (Runs.stitched t) then
        QCheck.Test.fail_reportf "time-sorted input did not stitch";
      if Runs.stitched t then begin
        Runs.finish t;
        let log = Runs_oracle.log_of_records records in
        let runs10 = Runs_oracle.analyze ~window ~jump_blocks:10 log in
        let runs1 = Runs_oracle.analyze ~window ~jump_blocks:1 log in
        cki "swaps" (Runs_oracle.swaps ~window log) (Runs.swaps t);
        check_table3 "table3" (Runs_oracle.table3 runs10) (Runs.table3 t);
        check_table3 "table3 strict" (Runs_oracle.table3 runs1) (Runs.table3 ~strict:true t);
        check_curves "fig2" (size_curve (Runs_oracle.by_file_size runs10))
          (size_curve (Runs.by_file_size t));
        check_curves "fig5" (seq_curve (Runs_oracle.sequentiality ~window log))
          (seq_curve (Runs.sequentiality t))
      end;
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

let law_names =
  prop_merge_laws "names" ~symmetric:false
    ~build:(build_with Names.create Names.observe)
    ~build_shard:(build_with Names.create_shard Names.observe)
    ~empty:Names.create ~empty_shard:Names.create_shard ~merge:Names.merge
    ~eq:check_names_eq

let law_runs =
  let root () = Runs.create () and shard () = Runs.create_shard () in
  prop_merge_laws "runs" ~symmetric:false ~build:(build_with root Runs.observe)
    ~build_shard:(build_with shard Runs.observe) ~empty:root ~empty_shard:shard ~merge:Runs.merge
    ~eq:check_runs_eq

let law_reorder =
  prop_merge_laws "reorder" ~symmetric:false
    ~build:(build_with Reorder.create Reorder.observe)
    ~build_shard:(build_with Reorder.create_shard Reorder.observe)
    ~empty:Reorder.create ~empty_shard:Reorder.create_shard ~merge:Reorder.merge
    ~eq:check_reorder_eq

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

let fp_runs =
  prop_footprint "runs" ~build:(build_with (fun () -> Runs.create ()) Runs.observe)
    ~footprint:Runs.footprint

let fp_reorder =
  prop_footprint "reorder"
    ~build:(build_with Reorder.create Reorder.observe)
    ~footprint:Reorder.footprint

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

(* The runs state is per file, not per access: the same files read
   fifty times as long leave the same footprint. *)
let test_runs_state_bounded () =
  let fhs = Array.init 8 (fun i -> Fh.make ~fsid:9 ~fileid:(400 + i)) in
  let footprint rounds =
    let t = Runs.create () in
    for i = 0 to (8 * rounds) - 1 do
      Runs.observe t
        (read_rec ~fh:fhs.(i mod 8) ~time:(Tw.week_start +. float_of_int i) ~offset:(i / 8 * 8192)
           ~count:8192 ~size:(1 lsl 30) ~eof:false ())
    done;
    Runs.footprint t
  in
  let small = footprint 20 and large = footprint 1000 in
  Alcotest.(check int) "cards" small.Nt_obs.Footprint.cards large.Nt_obs.Footprint.cards;
  Alcotest.(check int) "words" small.Nt_obs.Footprint.words large.Nt_obs.Footprint.words

(* --- shard-boundary unit tests --- *)

let fh_a = Fh.make ~fsid:9 ~fileid:201
let dir0 = Fh.make ~fsid:9 ~fileid:1

let check_unit f = fun () -> f ()

(* A sequential run straddling the cut must not be split: the merge
   joins the shard's first run to the open run it continues. *)
let test_run_straddles_boundary () =
  let records =
    Array.init 10 (fun i ->
        read_rec ~fh:fh_a ~time:(Tw.week_start +. (20. *. float_of_int i)) ~offset:(i * 8192)
          ~count:8192 ~size:(1 lsl 20) ~eof:false ())
  in
  let rp = run_sharded (Passes.runs ()) ~shard_len:5 records in
  Alcotest.(check bool) "the merge stitched" true (Runs.stitched rp);
  let rs = run_seq (Passes.runs ()) records in
  Runs.finish rp;
  Alcotest.(check int) "one run despite the cut" 1 (Runs.table3 rp).total_runs;
  (* 80 KB in one run: Figure 5's 128 KB bucket holds every run *)
  let cum = (Runs.sequentiality rp).cum_total_runs in
  Alcotest.(check (pair (float 0.) (float 0.))) "all accesses in it" (0., 100.) (cum.(2), cum.(3));
  check_runs_eq rs rp

(* A reorder-window inversion exactly at the cut: the shard holds the
   accesses the window step of the earlier range can still reach, and
   the merge replays them, so the step fixes the inversion. *)
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
  let rp = run_sharded (Passes.runs ()) ~shard_len:2 records in
  Alcotest.(check bool) "the merge stitched" true (Runs.stitched rp);
  Runs.finish rp;
  Alcotest.(check int) "window sort sees the straddling swap" 1 (Runs.swaps rp);
  Alcotest.(check (float 0.)) "offsets ascend after the sort" 100.
    (Runs.table3 ~strict:true rp).read.sequential_pct;
  check_runs_eq
    (run_seq (Passes.runs ()) records)
    (run_sharded (Passes.runs ()) ~shard_len:2 records)

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
  Alcotest.(check string) "repeated --jobs 4 identical" b c;
  List.iter
    (fun s ->
      let text jobs = List.assoc s (Report.run ~jobs ~sections:[ s ] records) in
      Alcotest.(check string) (Report.section_name s ^ ": --jobs 1 == --jobs 4") (text 1) (text 4))
    Report.all_sections

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
let all_sections = Report.all_sections

(* Every section with a merge: asking for [lifetime] reads one range. *)
let ranged_sections = List.filter (fun s -> s <> `Lifetime) all_sections

let pass_names = [ "summary"; "hourly"; "names"; "runs"; "rawruns"; "lifetime"; "reorder" ]

let render texts =
  texts
  |> List.map (fun (s, text) -> Printf.sprintf "== %s ==\n%s" (Report.section_name s) text)
  |> String.concat "\n"

let span_count snap name =
  match Obs.get_span snap name with None -> 0 | Some sp -> sp.Obs.count

let reruns snap cause = Obs.get_counter snap ~labels:[ ("cause", cause) ] "par.reruns"

let check_ranged_matches_single ~sections ~jobs records =
  let n = Array.length records in
  let ranges = if List.mem `Lifetime sections then 1 else Report.range_count jobs in
  let label = Printf.sprintf "%d records, %d ranges" n ranges in
  let want, count = Report.run_stream ~sections (fun push -> Array.iter push records) in
  Alcotest.(check int) (label ^ ": record count") n count;
  let obs = Obs.create () in
  let texts = Report.run ~obs ~jobs ~sections records in
  Alcotest.(check string) (label ^ ": ranged = one range") (render want) (render texts);
  let snap = Obs.snapshot obs in
  List.iter
    (fun pass ->
      Alcotest.(check int)
        (label ^ ": one " ^ pass ^ " span per range")
        (if pass = "lifetime" && not (List.mem `Lifetime sections) then 0 else ranges)
        (span_count snap ("par.pass." ^ pass)))
    pass_names;
  Alcotest.(check int) (label ^ ": one merge span per merge") (ranges - 1)
    (span_count snap "par.merge")

let test_ranged_matches_single () =
  let records = golden_records () in
  List.iter
    (fun sections ->
      List.iter
        (fun jobs ->
          check_ranged_matches_single ~sections ~jobs records;
          check_ranged_matches_single ~sections ~jobs (Array.sub records 0 3);
          check_ranged_matches_single ~sections ~jobs [||])
        [ 1; 2; 3; 4; 7; 64 ])
    [ all_sections; ranged_sections ]

(* Sections that read one fold share it: runs, sizes and seqmetric
   fold runs once, daily rides on summary's fold and variance on
   hourly's. *)
let test_sections_share_folds () =
  let records = golden_records () in
  let spans sections =
    let obs = Obs.create () in
    ignore (Report.run ~obs ~jobs:1 ~sections records : (Report.section * string) list);
    let snap = Obs.snapshot obs in
    List.filter_map
      (fun pass ->
        match span_count snap ("par.pass." ^ pass) with 0 -> None | n -> Some (pass, n))
      pass_names
  in
  let check label want sections =
    Alcotest.(check (list (pair string int))) label want (spans sections)
  in
  check "runs,sizes,seqmetric: one runs fold" [ ("runs", 1) ] [ `Runs; `Sizes; `Seqmetric ];
  check "daily,summary: one summary fold" [ ("summary", 1) ] [ `Daily; `Summary ];
  check "variance,hourly: one hourly fold" [ ("hourly", 1) ] [ `Variance; `Hourly ];
  check "the four nfsstats sections fold what they did"
    [ ("summary", 1); ("hourly", 1); ("names", 1); ("runs", 1) ]
    [ `Summary; `Runs; `Names; `Hourly ]

(* A one-range section makes the file read as one range, with the text
   of a one-job read. *)
let test_one_range_section () =
  let records = golden_records () in
  let path = Filename.temp_file "nt_par" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          ignore (Record.write_channel oc (Array.to_seq records) : int));
      let analyze ~jobs sections =
        let obs = Obs.create () in
        let texts, n, _ = Nt_core.Pipeline.analyze_trace ~obs ~jobs ~sections path in
        let snap = Obs.snapshot obs in
        Alcotest.(check int) "every record" (Array.length records) n;
        (render texts, span_count snap "par.pass.summary", span_count snap "par.merge")
      in
      let _, ranges, merges = analyze ~jobs:4 [ `Summary ] in
      Alcotest.(check (pair int int)) "summary alone: four ranges" (4, 3) (ranges, merges);
      let want, _, _ = analyze ~jobs:1 [ `Summary; `Lifetime ] in
      let got, ranges, merges = analyze ~jobs:4 [ `Summary; `Lifetime ] in
      Alcotest.(check (pair int int)) "with lifetime: one range" (1, 0) (ranges, merges);
      Alcotest.(check string) "with lifetime: the one-job text" want got)

(* The lifetime section keeps the weekday 9am phases the trace covers
   for 24h + 24h: a trace from Monday 8am to Wednesday 9:30am covers
   Monday's phase and no other. *)
let test_lifetime_covered_phases () =
  let at day hour = Tw.time_of ~day ~hour ~minute:0 in
  let h = Report.start ~sections:[ `Lifetime ] () in
  List.iter (Report.push h)
    [
      getattr_rec ~time:(at Tw.Mon 8) ~fh:fh_a ~size:0 ();
      write_rec ~fh:fh_a ~time:(at Tw.Mon 10) ~offset:0 ~count:16384 ~size:16384 ();
      write_rec ~fh:fh_a ~time:(at Tw.Mon 11) ~offset:0 ~count:8192 ~size:16384 ();
      getattr_rec ~time:(at Tw.Wed 9 +. 1800.) ~fh:fh_a ~size:16384 ();
    ];
  let texts, n, v = Report.finish h in
  Alcotest.(check int) "records" 4 n;
  match v.lifetime with
  | Some [ (Tw.Mon, r) ] ->
      Alcotest.(check (pair int int)) "births and deaths" (3, 1) (r.births, r.deaths);
      let text = List.assoc `Lifetime texts in
      Alcotest.(check bool) "the text names the phase" true
        (String.starts_with ~prefix:"Block lifetimes (9am phases: Mon;" text)
  | _ -> Alcotest.fail "expected Monday's phase alone"

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
  Alcotest.(check int) "one runs span per range" 3 (span_count snap "par.pass.runs");
  Alcotest.(check int) "one merge span per merge" 2 (span_count snap "par.merge");
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
  let want, _ = Report.run_stream ~sections:ranged_sections (fun push -> Array.iter push records) in
  let obs = Obs.create () in
  let texts, count, results =
    Report.run_ranges ~obs ~stitched:(fun _ -> false) ~ranges:4 ~sections:ranged_sections
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
  Alcotest.(check int) "no merges" 0 (span_count snap "par.merge");
  Alcotest.(check (option int)) "one rerun for the stitch" (Some 1) (reruns snap "stitch");
  Alcotest.(check (option int)) "none for runs" None (reruns snap "runs")

(* Ranges whose runs cannot stitch: an access that runs more than the
   shard horizon ahead of the next range is still pending in range 0's
   window when a later access of the same file, within the window of
   it, opens range 1. The merge finds the cut crossed, and the input is
   read again as one range. *)
let test_unstitched_runs_rerun () =
  let t0 = Tw.week_start in
  let read time offset =
    read_rec ~fh:fh_a ~time ~offset ~count:8192 ~size:(1 lsl 20) ~eof:false ()
  in
  let early = Array.init 20 (fun i -> read (t0 +. float_of_int i) (i * 8192)) in
  let ahead = read (t0 +. 200.) (8192 * 100) in
  let late =
    Array.append
      (Array.init 20 (fun i -> read (t0 +. 20. +. float_of_int i) ((20 + i) * 8192)))
      (Array.init 5 (fun i -> read (t0 +. 199.995 +. (0.001 *. float_of_int i)) ((96 + i) * 8192)))
  in
  let parts = [| Array.append early [| ahead |]; late |] in
  let records = Array.concat (Array.to_list parts) in
  let want, _ = Report.run_stream ~sections:ranged_sections (fun push -> Array.iter push records) in
  let obs = Obs.create () in
  let texts, count, _ =
    Report.run_ranges ~obs ~ranges:2 ~sections:ranged_sections (fun ~ranges i push ->
        Array.iter push (if ranges = 1 then records else parts.(i)))
  in
  Alcotest.(check string) "rerun = one range" (render want) (render texts);
  Alcotest.(check int) "record count" (Array.length records) count;
  let snap = Obs.snapshot obs in
  Alcotest.(check (option int)) "one rerun for runs" (Some 1) (reruns snap "runs");
  Alcotest.(check (option int)) "none for the stitch" None (reruns snap "stitch");
  Alcotest.(check int) "pass spans of the rerun only" 1 (span_count snap "par.pass.runs");
  Alcotest.(check int) "the merge that found the crossing" 1 (span_count snap "par.merge")

let () =
  Alcotest.run "nt_par"
    [
      ( "merge-equivalence",
        [
          QCheck_alcotest.to_alcotest prop_summary;
          QCheck_alcotest.to_alcotest prop_hourly;
          QCheck_alcotest.to_alcotest prop_names;
          QCheck_alcotest.to_alcotest prop_runs;
          QCheck_alcotest.to_alcotest prop_reorder;
          QCheck_alcotest.to_alcotest prop_runs_oracle;
        ] );
      ( "merge-laws",
        [
          QCheck_alcotest.to_alcotest law_summary;
          QCheck_alcotest.to_alcotest law_hourly;
          QCheck_alcotest.to_alcotest law_names;
          QCheck_alcotest.to_alcotest law_runs;
          QCheck_alcotest.to_alcotest law_reorder;
          QCheck_alcotest.to_alcotest law_win;
        ] );
      ( "footprints",
        [
          QCheck_alcotest.to_alcotest fp_summary;
          QCheck_alcotest.to_alcotest fp_hourly;
          QCheck_alcotest.to_alcotest fp_runs;
          QCheck_alcotest.to_alcotest fp_reorder;
          QCheck_alcotest.to_alcotest fp_names;
          QCheck_alcotest.to_alcotest fp_lifetime;
          QCheck_alcotest.to_alcotest fp_histogram;
          QCheck_alcotest.to_alcotest fp_stats;
          QCheck_alcotest.to_alcotest fp_win;
          Alcotest.test_case "runs state is bounded by files" `Quick
            (check_unit test_runs_state_bounded);
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
          Alcotest.test_case "unstitched runs rerun as one" `Quick
            (check_unit test_unstitched_runs_rerun);
          Alcotest.test_case "sections share folds" `Quick (check_unit test_sections_share_folds);
          Alcotest.test_case "a one-range section reads one range" `Quick
            (check_unit test_one_range_section);
          Alcotest.test_case "lifetime keeps covered phases" `Quick
            (check_unit test_lifetime_covered_phases);
        ] );
    ]
