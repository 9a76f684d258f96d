(* Live monitor tests.

   The robustness properties the monitor is built around, each checked
   directly:

   - boundedness: capped tables conserve totals (evicted keys land in
     (other), never vanish), and a ring with active eviction reports
     the same whole-run totals as one uncapped batch accumulator;
   - exact window edges: ring window starts are exact multiples of the
     window length, and a record at t = k*window_s lands in window k;
   - crash safety: a checkpoint written mid-run restores to a state
     whose continuation is byte-identical to the uninterrupted run,
     and corrupt/mis-versioned checkpoints are refused loudly;
   - graceful degradation: a bounded ingest queue sheds oldest-first
     with every shed counted, preserving the conservation law
     ingested = shed + observed + queued;
   - feed resilience: tailed traces consume only complete lines and
     survive truncation; idle feeds trigger capped exponential
     backoff. *)

module Win = Nt_mon.Win
module Ring = Nt_mon.Ring
module Ingest = Nt_mon.Ingest
module Outstanding = Nt_mon.Outstanding
module Feed = Nt_mon.Feed
module Checkpoint = Nt_mon.Checkpoint
module Service = Nt_mon.Service
module Record = Nt_trace.Record
module Ops = Nt_nfs.Ops
module Types = Nt_nfs.Types
module Fh = Nt_nfs.Fh
module Ip = Nt_net.Ip_addr
module Obs = Nt_obs.Obs
module Json = Nt_obs.Obs.Json

(* --- record generators --- *)

let base_time = 1000000000.

let record ?(time = base_time) ?(client = Ip.v 10 0 0 1) ?(uid = 1) ?(lost = false)
    ?(result = Some (Ok Ops.R_empty)) call : Record.t =
  {
    time;
    reply_time = (if lost then None else Some (time +. 0.001));
    client;
    server = Ip.v 10 0 0 2;
    version = 3;
    xid = 7;
    uid;
    gid = uid;
    call;
    result;
  }

let fh ?(fsid = 2) fileid = Fh.make ~fsid ~fileid

let read_rec ~time ~client ~uid ~count () =
  record ~time ~client ~uid
    ~result:(Some (Ok (Ops.R_read { attr = None; count; eof = false })))
    (Ops.Read { fh = fh 10; offset = 0L; count })

let write_rec ~time ~client ~uid ~count ~stable () =
  record ~time ~client ~uid
    ~result:(Some (Ok (Ops.R_write { count; committed = stable; attr = None })))
    (Ops.Write { fh = fh 11; offset = 0L; count; stable })

let getattr_rec ?(lost = false) ~time ~client ~uid () =
  record ~time ~client ~uid ~lost
    ~result:(if lost then None else Some (Ok (Ops.R_attr Types.default_fattr)))
    (Ops.Getattr (fh 12))

(* A deterministic mixed workload: [n] records starting at [t0],
   [rate] records per second, keys spread over [spread] clients/uids. *)
let gen_records ?(t0 = base_time) ?(rate = 10.) ?(spread = 8) ~seed n =
  let st = Random.State.make [| seed |] in
  List.init n (fun i ->
      let time = t0 +. (float_of_int i /. rate) in
      let client = Ip.v 10 0 0 (1 + Random.State.int st spread) in
      let uid = 100 + Random.State.int st spread in
      match Random.State.int st 4 with
      | 0 -> read_rec ~time ~client ~uid ~count:(512 + Random.State.int st 4096) ()
      | 1 ->
          let stable =
            match Random.State.int st 3 with
            | 0 -> Types.Unstable
            | 1 -> Types.Data_sync
            | _ -> Types.File_sync
          in
          write_rec ~time ~client ~uid ~count:(256 + Random.State.int st 2048) ~stable ()
      | 2 -> getattr_rec ~lost:(Random.State.int st 20 = 0) ~time ~client ~uid ()
      | _ -> record ~time ~client ~uid (Ops.Access { fh = fh 13; access = 0x3f }))

let cki = Alcotest.(check int)
let ckb = Alcotest.(check bool)
let cks = Alcotest.(check string)

(* --- Win --- *)

let test_win_classification () =
  let w = Win.create () in
  Win.observe w (read_rec ~time:base_time ~client:(Ip.v 10 0 0 1) ~uid:1 ~count:4096 ());
  Win.observe w
    (write_rec ~time:(base_time +. 1.) ~client:(Ip.v 10 0 0 2) ~uid:2 ~count:100
       ~stable:Types.Unstable ());
  Win.observe w
    (write_rec ~time:(base_time +. 2.) ~client:(Ip.v 10 0 0 2) ~uid:2 ~count:200
       ~stable:Types.File_sync ());
  Win.observe w (getattr_rec ~lost:true ~time:(base_time +. 3.) ~client:(Ip.v 10 0 0 3) ~uid:3 ());
  Win.observe w
    (record ~time:(base_time +. 4.) ~client:(Ip.v 10 0 0 4)
       (Ops.Commit { fh = fh 11; offset = 0L; count = 0 }));
  cki "total" 5 (Win.total_ops w);
  cki "reads" 1 (Win.read_ops w);
  cki "read bytes" 4096 (Win.read_bytes w);
  cki "writes" 2 (Win.write_ops w);
  cki "write bytes" 300 (Win.write_bytes w);
  cki "commits" 1 (Win.commit_ops w);
  cki "lost" 1 (Win.lost_replies w);
  let by_stable = Win.writes_by_stable w in
  let row s = List.assoc s by_stable in
  cki "unstable ops" 1 (row Types.Unstable).Win.ops;
  cki "unstable bytes" 100 (row Types.Unstable).Win.write_bytes;
  cki "data_sync ops" 0 (row Types.Data_sync).Win.ops;
  cki "file_sync ops" 1 (row Types.File_sync).Win.ops;
  cki "clients" 4 (Win.table_size w `Client);
  cki "fs table" 1 (Win.table_size w `Fs);
  (match Win.span w with
  | Some (lo, hi) ->
      Alcotest.(check (float 1e-9)) "span lo" base_time lo;
      Alcotest.(check (float 1e-9)) "span hi" (base_time +. 4.) hi
  | None -> Alcotest.fail "empty span")

(* Totals survive capping: a tightly capped window agrees with an
   uncapped one on every aggregate, and keyed rows + (other) sum to the
   uncapped table. *)
let prop_win_eviction_conserves =
  QCheck.Test.make ~count:60 ~name:"win: capped totals == uncapped totals"
    QCheck.(pair small_nat int)
    (fun (n, seed) ->
      let records = gen_records ~seed ~spread:16 (min 400 (10 * (n + 1))) in
      let capped =
        Win.create ~caps:{ Win.client_cap = 3; uid_cap = 3; fs_cap = 1; proc_cap = 2 } ()
      in
      let free = Win.create () in
      List.iter
        (fun r ->
          Win.observe capped r;
          Win.observe free r)
        records;
      let ck name a b = if a <> b then QCheck.Test.fail_reportf "%s: %d <> %d" name a b in
      ck "total" (Win.total_ops capped) (Win.total_ops free);
      ck "read_bytes" (Win.read_bytes capped) (Win.read_bytes free);
      ck "write_bytes" (Win.write_bytes capped) (Win.write_bytes free);
      ck "lost" (Win.lost_replies capped) (Win.lost_replies free);
      List.iter
        (fun table ->
          let sum w =
            List.fold_left
              (fun acc (_, (r : Win.row)) -> acc + r.Win.ops)
              (Win.other_row w table).Win.ops (Win.top w table max_int)
          in
          ck (Win.table_name table ^ " ops sum") (sum capped) (sum free);
          if Win.table_size free table > Win.table_size capped table then
            ck (Win.table_name table ^ " evictions > 0")
              (min 1 (Win.evictions capped table))
              1)
        Win.all_tables;
      true)

let test_win_serialization_roundtrip () =
  let w = Win.create ~caps:{ Win.client_cap = 4; uid_cap = 4; fs_cap = 2; proc_cap = 4 } () in
  List.iter (Win.observe w) (gen_records ~seed:42 ~spread:12 200);
  let doc = Json.to_string (Win.to_json w) in
  match
    Result.bind (Json.parse doc)
      (Win.of_json ~caps:{ Win.client_cap = 4; uid_cap = 4; fs_cap = 2; proc_cap = 4 })
  with
  | Error e -> Alcotest.fail ("round trip failed: " ^ e)
  | Ok w' ->
      cks "identical serialization" doc (Json.to_string (Win.to_json w'));
      cki "total" (Win.total_ops w) (Win.total_ops w');
      cki "evictions" (Win.evictions_total w) (Win.evictions_total w')

(* Replace (or with [None] drop) one member of an object. *)
let set_member k v = function
  | Json.Obj kvs ->
      Json.Obj
        (List.filter_map
           (fun (k', v') -> if k' = k then Option.map (fun v -> (k, v)) v else Some (k', v'))
           kvs)
  | j -> j

let test_win_of_json_rejects_garbage () =
  let w = Win.create () in
  List.iter (Win.observe w) (gen_records ~seed:1 20);
  let doc = Win.to_json w in
  ckb "truncated rejected" true (Result.is_error (Win.of_json (set_member "lost" None doc)));
  ckb "garbage rejected" true (Result.is_error (Win.of_json (Json.Str "bogus 1 2 3")))

(* --- Ring --- *)

let ring_config ?(window_s = 10.) ?(windows = 4) ?(caps = Win.default_caps) () =
  { Ring.window_s; windows; caps; summary_cap = caps }

(* Window boundaries land on exact multiples of window_s: a record at
   exactly t = k*window_s opens (or lands in) the window starting
   there, never the one before. *)
let test_ring_exact_edges () =
  let r = Ring.create (ring_config ~window_s:10. ()) in
  Ring.observe r (record ~time:100. (Ops.Getattr (fh 1)));
  (match Ring.current r with
  | Some (start, _) -> Alcotest.(check (float 0.)) "anchor aligned" 100. start
  | None -> Alcotest.fail "not anchored");
  Ring.observe r (record ~time:109.999999 (Ops.Getattr (fh 1)));
  cki "no rotation inside window" 0 (Ring.rotations r);
  Ring.observe r (record ~time:110. (Ops.Getattr (fh 1)));
  cki "boundary record rotates" 1 (Ring.rotations r);
  (match Ring.current r with
  | Some (start, w) ->
      Alcotest.(check (float 0.)) "new window starts at the edge" 110. start;
      cki "boundary record in new window" 1 (Win.total_ops w)
  | None -> Alcotest.fail "not anchored");
  List.iter
    (fun (start, _) ->
      ckb "start is an exact multiple" true (Float.rem start 10. = 0.))
    (Ring.live r)

let prop_ring_edges_aligned =
  QCheck.Test.make ~count:60 ~name:"ring: every window start is an exact multiple"
    QCheck.(triple small_nat (int_range 1 50) int)
    (fun (n, wsec, seed) ->
      let window_s = float_of_int wsec in
      let r = Ring.create (ring_config ~window_s ~windows:3 ()) in
      let records = gen_records ~seed ~rate:0.9 (min 300 (5 * (n + 1))) in
      List.iter (Ring.observe r) records;
      List.iter
        (fun (start, w) ->
          if Float.rem start window_s <> 0. then
            QCheck.Test.fail_reportf "window start %.3f not aligned to %.1f" start window_s;
          match Win.span w with
          | None -> ()
          | Some (lo, hi) ->
              if lo < start || hi >= start +. window_s then
                QCheck.Test.fail_reportf "record outside its window: [%f,%f] vs start %f" lo hi
                  start)
        (Ring.live r);
      true)

(* The tentpole conservation property: with rotation, spill-to-summary
   and table eviction all active, ring totals still equal one batch
   accumulator over every record. *)
let prop_ring_conserves_vs_batch =
  QCheck.Test.make ~count:60 ~name:"ring: totals with eviction == batch accumulator"
    QCheck.(pair small_nat int)
    (fun (n, seed) ->
      let caps = { Win.client_cap = 3; uid_cap = 3; fs_cap = 1; proc_cap = 3 } in
      let r = Ring.create (ring_config ~window_s:5. ~windows:2 ~caps ()) in
      let records = gen_records ~seed ~rate:2. ~spread:12 (min 400 (10 * (n + 1))) in
      let batch = Win.create () in
      List.iter
        (fun rec_ ->
          Ring.observe r rec_;
          Win.observe batch rec_)
        records;
      let totals = Ring.totals r in
      let ck name a b = if a <> b then QCheck.Test.fail_reportf "%s: %d <> %d" name a b in
      ck "observed" (Ring.observed r) (List.length records);
      ck "total" (Win.total_ops totals) (Win.total_ops batch);
      ck "read_bytes" (Win.read_bytes totals) (Win.read_bytes batch);
      ck "write_bytes" (Win.write_bytes totals) (Win.write_bytes batch);
      ck "commits" (Win.commit_ops totals) (Win.commit_ops batch);
      ck "lost" (Win.lost_replies totals) (Win.lost_replies batch);
      List.iter2
        (fun (s1, (r1 : Win.row)) (s2, (r2 : Win.row)) ->
          ck "stable kind" (Types.stable_how_to_int s1) (Types.stable_how_to_int s2);
          ck "stable ops" r1.Win.ops r2.Win.ops;
          ck "stable bytes" r1.Win.write_bytes r2.Win.write_bytes)
        (Win.writes_by_stable totals) (Win.writes_by_stable batch);
      (* windows long gone still count: enough records + short windows
         means spills definitely happened *)
      if List.length records > 100 && Ring.evicted_windows r = 0 then
        QCheck.Test.fail_reportf "expected window spills, got none";
      true)

let test_ring_time_jumps () =
  let r = Ring.create (ring_config ~window_s:10. ~windows:3 ()) in
  Ring.observe r (record ~time:1000. (Ops.Getattr (fh 1)));
  Ring.observe r (record ~time:1015. (Ops.Getattr (fh 1)));
  (* late but within retained windows: routed back, counted *)
  Ring.observe r (record ~time:1001. (Ops.Getattr (fh 1)));
  cki "late" 1 (Ring.late r);
  cki "backward" 1 (Ring.backward r);
  (* a jump over the whole ring flushes and re-anchors *)
  Ring.observe r (record ~time:5000. (Ops.Getattr (fh 1)));
  cki "forward jump" 1 (Ring.forward_jumps r);
  (match Ring.current r with
  | Some (start, _) -> Alcotest.(check (float 0.)) "re-anchored" 5000. start
  | None -> Alcotest.fail "not anchored");
  (* ancient record after the jump: into the summary, conserved *)
  Ring.observe r (record ~time:1002. (Ops.Getattr (fh 1)));
  cki "observed" 5 (Ring.observed r);
  cki "totals conserve everything" 5 (Win.total_ops (Ring.totals r))

let test_ring_serialization_roundtrip () =
  let config = ring_config ~window_s:5. ~windows:3 () in
  let r = Ring.create config in
  List.iter (Ring.observe r) (gen_records ~seed:77 ~rate:1.5 ~spread:10 150);
  match Ring.of_json config (Ring.to_json r) with
  | Error e -> Alcotest.fail ("ring round trip: " ^ e)
  | Ok r' ->
      cki "observed" (Ring.observed r) (Ring.observed r');
      cki "rotations" (Ring.rotations r) (Ring.rotations r');
      cki "evicted windows" (Ring.evicted_windows r) (Ring.evicted_windows r');
      cki "live windows" (List.length (Ring.live r)) (List.length (Ring.live r'));
      cki "totals" (Win.total_ops (Ring.totals r)) (Win.total_ops (Ring.totals r'));
      cks "window starts"
        (String.concat "," (List.map (fun (s, _) -> Printf.sprintf "%.1f" s) (Ring.live r)))
        (String.concat "," (List.map (fun (s, _) -> Printf.sprintf "%.1f" s) (Ring.live r')))

(* --- Ingest --- *)

let test_ingest_sheds_oldest () =
  let q = Ingest.create ~capacity:3 in
  cki "push 1" 0 (match Ingest.push q 1 with None -> 0 | Some _ -> 1);
  ignore (Ingest.push q 2);
  ignore (Ingest.push q 3);
  (match Ingest.push q 4 with
  | Some shed -> cki "oldest shed" 1 shed
  | None -> Alcotest.fail "expected shed");
  cki "length stays capped" 3 (Ingest.length q);
  (match Ingest.pop q with Some v -> cki "head is 2" 2 v | None -> Alcotest.fail "empty");
  (match Ingest.pop q with Some v -> cki "then 3" 3 v | None -> Alcotest.fail "empty");
  (match Ingest.pop q with Some v -> cki "then 4" 4 v | None -> Alcotest.fail "empty");
  ckb "now empty" true (Ingest.is_empty q)

let prop_ingest_fifo_bounded =
  QCheck.Test.make ~count:100 ~name:"ingest: bounded FIFO, shed head order"
    QCheck.(pair (int_range 1 16) (small_list small_nat))
    (fun (cap, xs) ->
      let q = Ingest.create ~capacity:cap in
      let shed = ref [] in
      List.iter
        (fun x -> match Ingest.push q x with Some s -> shed := s :: !shed | None -> ())
        xs;
      if Ingest.length q > cap then QCheck.Test.fail_reportf "over capacity";
      let rec drain acc = match Ingest.pop q with Some v -> drain (v :: acc) | None -> List.rev acc in
      let out = drain [] in
      (* shed (oldest first) + remaining = original sequence *)
      let rebuilt = List.rev !shed @ out in
      if rebuilt <> xs then QCheck.Test.fail_reportf "shed+rest is not the input sequence";
      true)

(* --- Outstanding --- *)

let test_outstanding_snapshot () =
  let o = Outstanding.create ~cap:8 ~timeout:60. () in
  Outstanding.note o (read_rec ~time:100. ~client:(Ip.v 10 0 0 1) ~uid:1 ~count:10 ());
  Outstanding.note o (getattr_rec ~lost:true ~time:100.5 ~client:(Ip.v 10 0 0 1) ~uid:1 ());
  Outstanding.advance o ~now:100.0005;
  cki "read still outstanding" 2 (Outstanding.outstanding o);
  Outstanding.advance o ~now:101.;
  cki "read retired" 1 (Outstanding.outstanding o);
  cki "no losses yet" 0 (Outstanding.lost o);
  Outstanding.advance o ~now:200.;
  cki "lost call timed out" 0 (Outstanding.outstanding o);
  cki "counted as lost" 1 (Outstanding.lost o)

let test_outstanding_bounded () =
  let o = Outstanding.create ~cap:4 ~timeout:60. () in
  for i = 0 to 9 do
    Outstanding.note o (getattr_rec ~lost:true ~time:(float_of_int (100 + i)) ~client:(Ip.v 10 0 0 1) ~uid:1 ())
  done;
  cki "capped" 4 (Outstanding.outstanding o);
  cki "dropped counted" 6 (Outstanding.dropped o)

(* A restored tracker holds the same calls, counters and expiry order:
   advancing both through the same instants retires the same calls. *)
let test_outstanding_roundtrip () =
  let o = Outstanding.create ~cap:4 ~timeout:60. () in
  for i = 0 to 9 do
    let time = float_of_int (100 + (10 * i)) and client = Ip.v 10 0 0 1 in
    if i mod 3 = 0 then Outstanding.note o (read_rec ~time ~client ~uid:1 ~count:10 ())
    else Outstanding.note o (getattr_rec ~lost:true ~time ~client ~uid:1 ())
  done;
  Outstanding.advance o ~now:205.;
  ckb "entries" true (Outstanding.outstanding o > 0);
  ckb "lost" true (Outstanding.lost o > 0);
  ckb "dropped" true (Outstanding.dropped o > 0);
  let doc = Outstanding.to_json o in
  let expiries =
    match Json.member "calls" doc with
    | Some (Arr calls) ->
        List.map (function Json.Arr (Num e :: _) -> e | _ -> Float.nan) calls
    | _ -> []
  in
  ckb "calls in expiry order" true (expiries = List.sort compare expiries);
  match Result.bind (Json.parse (Json.to_string doc)) (Outstanding.of_json ~cap:4 ~timeout:60.) with
  | Error e -> Alcotest.fail ("pending round trip: " ^ e)
  | Ok o' ->
      cks "identical serialization" (Json.to_string doc) (Json.to_string (Outstanding.to_json o'));
      List.iter
        (fun now ->
          Outstanding.advance o ~now;
          Outstanding.advance o' ~now;
          let at = Printf.sprintf " at %g" now in
          cki ("outstanding" ^ at) (Outstanding.outstanding o) (Outstanding.outstanding o');
          cki ("lost" ^ at) (Outstanding.lost o) (Outstanding.lost o');
          cki ("dropped" ^ at) (Outstanding.dropped o) (Outstanding.dropped o'))
        [ 215.; 231.; 245.; 1000. ]

(* --- checkpoint encoding --- *)

(* [None] when [x] re-encodes to the same text both straight from its
   value and through the printed document, else what went wrong. *)
let reencoding_error name to_json of_json x =
  let doc = Json.to_string (to_json x) in
  List.find_map
    (fun (how, got) ->
      match got with
      | Ok y when Json.to_string (to_json y) = doc -> None
      | Ok _ -> Some (Printf.sprintf "%s (%s): re-encoding differs" name how)
      | Error e -> Some (Printf.sprintf "%s (%s): %s" name how e))
    [ ("value", of_json (to_json x)); ("parsed", Result.bind (Json.parse doc) of_json) ]

let prop_encoding_fixpoint =
  QCheck.Test.make ~count:60 ~name:"encoding: to_json (of_json (to_json x)) = to_json x"
    QCheck.(pair (int_bound 300) int)
    (fun (n, seed) ->
      let caps = { Win.client_cap = 3; uid_cap = 3; fs_cap = 1; proc_cap = 3 } in
      let config = ring_config ~window_s:5. ~windows:2 ~caps () in
      let w = Win.create ~caps () and r = Ring.create config in
      let o = Outstanding.create ~cap:16 ~timeout:3. () in
      List.iter
        (fun x ->
          Win.observe w x;
          Ring.observe r x;
          Outstanding.note o x;
          Outstanding.advance o ~now:x.Record.time)
        (gen_records ~seed ~rate:2. ~spread:12 n);
      List.iter
        (Option.iter QCheck.Test.fail_report)
        [ reencoding_error "win" Win.to_json (Win.of_json ~caps) w;
          reencoding_error "ring" Ring.to_json (Ring.of_json config) r;
          reencoding_error "pending" Outstanding.to_json
            (Outstanding.of_json ~cap:16 ~timeout:3.) o ];
      true)

(* Empty state is all sentinels: each prints as null and restores to
   its create-time value. *)
let test_encoding_empty () =
  let config = ring_config () in
  let w = Win.create () and r = Ring.create config and o = Outstanding.create () in
  let member k v = Option.value ~default:(Json.Str "absent") (Json.member k v) in
  ckb "empty span is null" true (member "span" (Win.to_json w) = Json.Null);
  ckb "unanchored cur_start is null" true (member "cur_start" (Ring.to_json r) = Json.Null);
  ckb "unseen max_seen is null" true (member "max_seen" (Ring.to_json r) = Json.Null);
  List.iter
    (Option.iter (fun e -> Alcotest.fail e))
    [ reencoding_error "win" Win.to_json (Win.of_json ?caps:None) w;
      reencoding_error "ring" Ring.to_json (Ring.of_json config) r;
      reencoding_error "pending" Outstanding.to_json
        (Outstanding.of_json ?cap:None ?timeout:None) o ];
  (match Win.of_json (Win.to_json w) with
  | Ok w' -> ckb "window span empty" true (Win.span w' = None)
  | Error e -> Alcotest.fail e);
  match Ring.of_json config (Ring.to_json r) with
  | Ok r' ->
      ckb "ring unanchored" false (Ring.anchored r');
      ckb "no newest time" true (Ring.newest r' = None);
      Ring.observe r' (record ~time:123. (Ops.Getattr (fh 1)));
      ckb "anchors on the first record" true (Ring.anchored r')
  | Error e -> Alcotest.fail e

let test_encoding_refusals () =
  let w = Win.create () in
  List.iter (Win.observe w) (gen_records ~seed:3 30);
  let doc = Win.to_json w in
  let add kv = function Json.Obj kvs -> Json.Obj (kvs @ [ kv ]) | j -> j in
  let refused name v = ckb name true (Result.is_error (Win.of_json v)) in
  ckb "intact document accepted" true (Result.is_ok (Win.of_json doc));
  refused "missing key" (set_member "commits" None doc);
  refused "duplicated key" (add ("lost", Json.int 0) doc);
  refused "unknown key" (add ("extra", Json.int 0) doc);
  refused "non-integral integer" (set_member "commits" (Some (Json.Num 1.5)) doc);
  refused "integer at 2^53" (set_member "commits" (Some (Json.Num 9007199254740992.)) doc);
  refused "null in a count" (set_member "lost" (Some Json.Null) doc);
  refused "null in a row"
    (set_member "total" (Some (Json.Arr [ Null; Json.int 0; Json.int 0 ])) doc);
  refused "null inside the span" (set_member "span" (Some (Json.Arr [ Null; Json.Num 1. ])) doc);
  let config = ring_config () in
  let r = Ring.create config in
  List.iter (Ring.observe r) (gen_records ~seed:4 30);
  let rdoc = Ring.to_json r in
  let ring_refused name v = ckb name true (Result.is_error (Ring.of_json config v)) in
  ckb "intact ring accepted" true (Result.is_ok (Ring.of_json config rdoc));
  ring_refused "ring: missing key" (set_member "late" None rdoc);
  ring_refused "ring: unknown key" (add ("extra", Json.Null) rdoc);
  ring_refused "ring: null in a count" (set_member "rotations" (Some Json.Null) rdoc);
  ring_refused "ring: null window start"
    (set_member "windows" (Some (Json.Arr [ Json.Arr [ Null; Win.to_json w ] ])) rdoc);
  ring_refused "ring: bad summary" (set_member "summary" (Some (set_member "reads" None doc)) rdoc);
  let odoc = Outstanding.to_json (Outstanding.create ()) in
  let pending_refused name v = ckb name true (Result.is_error (Outstanding.of_json v)) in
  pending_refused "pending: missing key" (set_member "dropped" None odoc);
  pending_refused "pending: duplicated key" (add ("lost", Json.int 1) odoc);
  pending_refused "pending: non-integral count" (set_member "lost" (Some (Json.Num 0.5)) odoc);
  pending_refused "pending: null expiry"
    (set_member "calls" (Some (Json.Arr [ Json.Arr [ Null; Str "read"; Bool false ] ])) odoc)

(* --- Feed --- *)

let test_feed_of_records () =
  let records = gen_records ~seed:5 10 in
  let f = Feed.of_records (List.to_seq records) in
  let rec count acc =
    match Feed.pull f with `Record _ -> count (acc + 1) | `Closed -> acc | `Idle -> count acc
  in
  cki "all records then closed" 10 (count 0)

let with_tmp name body =
  let path = Filename.concat (Filename.get_temp_dir_name ()) name in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> body path)

let test_trace_tail_partial_lines () =
  with_tmp "ntmon_tail_test.trace" (fun path ->
      let records = gen_records ~seed:9 4 in
      let lines = List.map Record.to_line records in
      let oc = open_out path in
      let obs = Obs.create () in
      let f = Feed.trace_tail ~obs path in
      ckb "empty file idles" true (Feed.pull f = `Idle);
      (* a complete line plus a partial one: only the complete line is
         consumed *)
      output_string oc (List.nth lines 0);
      output_char oc '\n';
      let partial = List.nth lines 1 in
      output_string oc (String.sub partial 0 (String.length partial / 2));
      flush oc;
      ckb "first record" true (match Feed.pull f with `Record _ -> true | _ -> false);
      ckb "partial line is held back" true (Feed.pull f = `Idle);
      (* completing the line releases it *)
      output_string oc
        (String.sub partial (String.length partial / 2)
           (String.length partial - (String.length partial / 2)));
      output_char oc '\n';
      flush oc;
      ckb "completed record" true (match Feed.pull f with `Record _ -> true | _ -> false);
      (* garbage line: counted, not fatal *)
      output_string oc "not a record\n";
      output_string oc (List.nth lines 2);
      output_char oc '\n';
      flush oc;
      ckb "skips garbage, yields next" true
        (match Feed.pull f with `Record _ -> true | _ -> false);
      let snap = Obs.snapshot obs in
      cki "parse error counted" 1 (Obs.sum_counter snap "mon.feed.parse_errors");
      close_out oc;
      Feed.close f)

(* --- file tails over every format --- *)

let campus_start = Nt_util.Trace_week.time_of ~day:Nt_util.Trace_week.Wed ~hour:9 ~minute:0
let campus_config = { Nt_workload.Email.default_config with users = 2 }

let campus_records () =
  let acc = ref [] in
  ignore
    (Nt_core.Pipeline.simulate_campus ~config:campus_config ~start:campus_start
       ~stop:(campus_start +. 300.) ~sink:(fun r -> acc := r :: !acc) ()
      : Nt_core.Pipeline.run_stats);
  List.rev !acc

let campus_pcap () =
  let buf = Buffer.create 65536 in
  let (_ : Nt_core.Pipeline.pcap_stats) =
    Nt_core.Pipeline.campus_to_pcap ~config:campus_config ~start:campus_start
      ~stop:(campus_start +. 300.) ~writer:(Nt_net.Pcap.writer_to_buffer buf) ()
  in
  Buffer.contents buf

(* What one whole-file capture emits while the pcap streams through,
   and then what [finish] flushes (the calls that never got a reply). *)
let capture_lines ?salvage pcap =
  let out = ref [] in
  let cap = Nt_trace.Capture.create ~emit:(fun r -> out := Record.to_line r :: !out) () in
  Nt_trace.Capture.feed_pcap cap (Nt_net.Pcap.reader_of_string ?salvage pcap);
  let streamed = List.rev !out in
  out := [];
  ignore (Nt_trace.Capture.finish cap : Nt_trace.Capture.stats * Record.t list);
  (streamed, List.rev !out)

(* Every record the feed has ready, as text lines. *)
let drain_lines f =
  let rec go acc =
    match Feed.pull f with
    | `Record r -> go (Record.to_line r :: acc)
    | `Idle | `Closed -> List.rev acc
  in
  go []

(* Append [data] to [path] in [chunk]-byte writes, draining the feed
   after each, so units arrive split across reads. *)
let grow_lines ~chunk path f data =
  let oc = open_out_gen [ Open_append; Open_binary; Open_creat ] 0o644 path in
  let n = String.length data in
  let rec grow i acc =
    if i >= n then List.concat (List.rev acc)
    else begin
      let len = min chunk (n - i) in
      output_string oc (String.sub data i len);
      flush oc;
      grow (i + len) (drain_lines f :: acc)
    end
  in
  let got = grow 0 [] in
  close_out oc;
  got

let test_trace_tail_truncation_reopen () =
  (* Rotate as logrotate's copytruncate does: truncate to empty, then
     the writer starts a fresh stream (with its own magic or global
     header). The reopen is a seek to 0: the tail must deliver exactly
     the new stream, decode it without a failure and report a position
     inside the new file. A pcap tail first flushes the old capture's
     unanswered calls, as it does at close. *)
  let records = campus_records () in
  let half = List.length records / 2 in
  let first = List.filteri (fun i _ -> i < half) records in
  let second = List.filteri (fun i _ -> i >= half) records in
  let text rs = String.concat "" (List.map (fun r -> Record.to_line r ^ "\n") rs) in
  let tbin rs = Nt_tbin.encode_string ~frame_records:16 rs in
  let lines rs = List.map Record.to_line rs in
  let pcap = campus_pcap () in
  let streamed, flushed = capture_lines pcap in
  List.iter
    (fun (name, (tail : ?obs:Obs.t -> string -> Feed.t), a, want_a, want_flush, b, want_b) ->
      with_tmp ("ntmon_reopen_test." ^ name) (fun path ->
          Out_channel.with_open_bin path (fun oc -> output_string oc a);
          let obs = Obs.create () in
          let f = tail ?obs:(Some obs) path in
          Alcotest.(check (list string)) (name ^ ": first stream") want_a (drain_lines f);
          Out_channel.with_open_bin path (fun _ -> ());
          Alcotest.(check (list string)) (name ^ ": at rotation") want_flush (drain_lines f);
          Alcotest.(check (list string))
            (name ^ ": fresh stream") want_b
            (grow_lines ~chunk:4096 path f b);
          let snap = Obs.snapshot obs in
          cki (name ^ ": reopen counted") 1 (Obs.sum_counter snap "mon.feed.reopens");
          cki (name ^ ": no decode failure") 0 (Obs.sum_counter snap "mon.feed.parse_errors");
          ckb (name ^ ": pos inside the new file") true
            (match Feed.pos f with
            | Some p -> Int64.compare p (Int64.of_int (String.length b)) <= 0
            | None -> false);
          Feed.close f))
    [
      ("trace", Feed.trace_tail, text first, lines first, [], text second, lines second);
      ("tbin", Feed.tbin_tail, tbin first, lines first, [], tbin second, lines second);
      ("pcap", Feed.pcap_tail, pcap, streamed, flushed, pcap, streamed);
    ]

(* Overwrite the incl_len of every [every]-th pcap record header with
   60,000: more than the frame holds, so only a salvaging reader finds
   the record after it. *)
let damage_pcap pcap ~every =
  let b = Bytes.of_string pcap in
  let rec walk off i hits =
    if off + 16 > Bytes.length b then hits
    else begin
      let incl = Int32.to_int (Bytes.get_int32_le b (off + 8)) in
      let hit = i > 0 && i mod every = 0 in
      if hit then Bytes.set_int32_le b (off + 8) 60_000l;
      walk (off + 16 + incl) (i + 1) (if hit then hits + 1 else hits)
    end
  in
  let hits = walk 24 0 0 in
  (Bytes.to_string b, hits)

let test_pcap_tail_matches_capture () =
  (* The tail hands Capture frames as slices of its window, while the
     file grows 1000 bytes at a time so jumbo frames arrive split
     across reads: the records must be those of one whole-file capture.
     The damaged copy must decode as the salvaging batch reader
     decodes it. *)
  let pcap = campus_pcap () in
  let damaged, hits = damage_pcap pcap ~every:500 in
  ckb "headers damaged" true (hits >= 3);
  List.iter
    (fun (name, data, salvage) ->
      with_tmp ("ntmon_tail_test." ^ name ^ ".pcap") (fun path ->
          let want, _ = capture_lines ~salvage data in
          let obs = Obs.create () in
          let f = Feed.pcap_tail ~obs path in
          let got = grow_lines ~chunk:1000 path f data in
          ckb (name ^ ": records streamed") true (List.length got > 50);
          Alcotest.(check (list string)) (name ^ ": tail = whole-file capture") want got;
          cki (name ^ ": every byte read") (String.length data)
            (Obs.sum_counter (Obs.snapshot obs) "mon.feed.bytes");
          Feed.close f))
    [ ("clean", pcap, false); ("damaged", damaged, true) ]

let test_tbin_tail_matches_iter_channel () =
  (* A tbin file growing in 1000-byte writes: frames arrive split across
     reads, and the tail must deliver exactly what the batch reader
     decodes, ending at the file's last byte. *)
  with_tmp "ntmon_tail_test.ntb" (fun path ->
      let data = Nt_tbin.encode_string ~frame_records:64 (campus_records ()) in
      let obs = Obs.create () in
      let f = Feed.tbin_tail ~obs path in
      let got = grow_lines ~chunk:1000 path f data in
      let want = ref [] in
      let st =
        In_channel.with_open_bin path (fun ic ->
            Nt_tbin.iter_channel ic (fun r -> want := Record.to_line r :: !want))
      in
      ckb "records streamed" true (List.length got > 50);
      cki "batch decode clean" 0 (Nt_tbin.failures st);
      Alcotest.(check (list string)) "tail = iter_channel" (List.rev !want) got;
      let snap = Obs.snapshot obs in
      cki "no decode failure" 0 (Obs.sum_counter snap "mon.feed.parse_errors");
      cki "every byte read" (String.length data) (Obs.sum_counter snap "mon.feed.bytes");
      ckb "pos at end of file" true (Feed.pos f = Some (Int64.of_int (String.length data)));
      Feed.close f)

let test_trace_tail_chunks_match_read_channel () =
  (* Lines reach the tail in 97-byte writes, so most arrive split across
     fills; garbage and blank lines sit between records. The tail must
     deliver exactly what read_channel reads from the whole file. *)
  with_tmp "ntmon_chunk_test.trace" (fun path ->
      let start = Nt_util.Trace_week.time_of ~day:Nt_util.Trace_week.Wed ~hour:9 ~minute:0 in
      let config = { Nt_workload.Email.default_config with users = 2 } in
      let lines = ref [] in
      let sink r = lines := Record.to_line r :: !lines in
      ignore (Nt_core.Pipeline.simulate_campus ~config ~start ~stop:(start +. 300.) ~sink ());
      let text =
        String.concat ""
          (List.mapi
             (fun i l -> if i mod 40 = 7 then "garbage " ^ l ^ "\n\n" ^ l ^ "\n" else l ^ "\n")
             (List.rev !lines))
      in
      let want, rejected =
        let oc = open_out_bin path in
        output_string oc text;
        close_out oc;
        let ic = open_in_bin path in
        let rejected = ref 0 in
        let rs = List.of_seq (Record.read_channel ~rejected ic) in
        close_in ic;
        (List.map Record.to_line rs, !rejected)
      in
      let obs = Obs.create () in
      let oc = open_out_bin path in
      let f = Feed.trace_tail ~obs path in
      let got = ref [] in
      let rec drain () =
        match Feed.pull f with
        | `Record r ->
            got := Record.to_line r :: !got;
            drain ()
        | `Idle | `Closed -> ()
      in
      let n = String.length text in
      let rec grow i =
        if i < n then begin
          let len = min 97 (n - i) in
          output_string oc (String.sub text i len);
          flush oc;
          drain ();
          grow (i + len)
        end
      in
      grow 0;
      close_out oc;
      ckb "records streamed" true (List.length want > 50);
      ckb "garbage present" true (rejected > 0);
      Alcotest.(check (list string)) "tail = read_channel" want (List.rev !got);
      let snap = Obs.snapshot obs in
      cki "same lines rejected" rejected (Obs.sum_counter snap "mon.feed.parse_errors");
      cki "every byte parsed" n (Obs.sum_counter snap "mon.feed.bytes");
      ckb "pos at end of file" true (Feed.pos f = Some (Int64.of_int n));
      Feed.close f)

let test_feed_seek_replays_suffix () =
  with_tmp "ntmon_seek_test.trace" (fun path ->
      let records = gen_records ~seed:13 8 in
      let oc = open_out path in
      List.iter (fun r -> output_string oc (Record.to_line r ^ "\n")) records;
      close_out oc;
      let f = Feed.trace_tail path in
      for _ = 1 to 5 do
        match Feed.pull f with `Record _ -> () | _ -> Alcotest.fail "expected record"
      done;
      let pos = match Feed.pos f with Some p -> p | None -> Alcotest.fail "no pos" in
      Feed.close f;
      let f2 = Feed.trace_tail path in
      ckb "seek ok" true (Feed.seek f2 pos);
      let rec drain acc = match Feed.pull f2 with `Record r -> drain (r :: acc) | _ -> List.rev acc in
      let rest = drain [] in
      cki "exactly the suffix" 3 (List.length rest);
      (match (rest, List.filteri (fun i _ -> i >= 5) records) with
      | r1 :: _, r2 :: _ -> Alcotest.(check (float 0.)) "same first record" r2.Record.time r1.Record.time
      | _ -> Alcotest.fail "empty suffix");
      Feed.close f2);
  (* A pcap tail resumed mid-capture reads the global header again,
     then decodes the suffix as a capture of header + suffix would. *)
  with_tmp "ntmon_seek_test.pcap" (fun path ->
      let pcap = campus_pcap () in
      Out_channel.with_open_bin path (fun oc -> output_string oc pcap);
      let f = Feed.pcap_tail path in
      for _ = 1 to 500 do
        match Feed.pull f with `Record _ -> () | _ -> Alcotest.fail "expected record"
      done;
      let pos = match Feed.pos f with Some p -> Int64.to_int p | None -> Alcotest.fail "no pos" in
      Feed.close f;
      let obs = Obs.create () in
      let f2 = Feed.pcap_tail ~obs path in
      ckb "pcap seek ok" true (Feed.seek f2 (Int64.of_int pos));
      let n = String.length pcap in
      let want, _ = capture_lines (String.sub pcap 0 24 ^ String.sub pcap pos (n - pos)) in
      Alcotest.(check (list string)) "pcap suffix" want (drain_lines f2);
      let snap = Obs.snapshot obs in
      (* the header costs one read; the prefix is not read again *)
      ckb "header read, then the suffix" true
        (Obs.sum_counter snap "mon.feed.bytes" - (n - pos) <= 65536);
      cki "pcap resume clean" 0 (Obs.sum_counter snap "mon.feed.parse_errors");
      Feed.close f2)

(* --- Checkpoint --- *)

let test_checkpoint_roundtrip () =
  with_tmp "ntmon_ckpt_test" (fun path ->
      let ck =
        Json.Obj
          [ ("format", Str Checkpoint.version); ("saved_at", Num 12345.5);
            ("feed_pos", Json.int 9876543210);
            ("counters", Obj [ ("ingested", Json.int 42); ("shed", Json.int 7) ]);
            ("ring", Arr [ Str "line one"; Str "line two" ]);
            ("pending", Obj [ ("lost", Json.int 1); ("dropped", Json.int 2) ]) ]
      in
      (match Checkpoint.save ~path ck with Ok () -> () | Error e -> Alcotest.fail e);
      match Checkpoint.load ~path with
      | Error e -> Alcotest.fail e
      | Ok ck' ->
          let get k = Option.value ~default:Json.Null (Json.member k ck') in
          Alcotest.(check (float 0.)) "saved_at" 12345.5
            (Option.value ~default:Float.nan (Json.to_num (get "saved_at")));
          ckb "feed_pos" true (Json.to_int (get "feed_pos") = Some 9876543210);
          let counters = match get "counters" with Obj kvs -> kvs | _ -> [] in
          cki "counters" 2 (List.length counters);
          ckb "ingested" true
            (Option.bind (List.assoc_opt "ingested" counters) Json.to_int = Some 42);
          cks "ring" "line one|line two"
            (String.concat "|"
               (List.filter_map Json.to_str
                  (Option.value ~default:[] (Json.to_list (get "ring")))));
          ckb "whole document" true (ck' = ck))

(* Saving a document that holds a number JSON cannot carry exactly
   fails and leaves the previous checkpoint as it was. *)
let test_checkpoint_refuses_inexact_numbers () =
  with_tmp "ntmon_ckpt_inexact" (fun path ->
      let doc n = Json.Obj [ ("format", Str Checkpoint.version); ("saved_at", Num n) ] in
      (match Checkpoint.save ~path (doc 1.) with Ok () -> () | Error e -> Alcotest.fail e);
      let before = In_channel.with_open_bin path In_channel.input_all in
      List.iter
        (fun (name, n) ->
          ckb name true (Result.is_error (Checkpoint.save ~path (doc n)));
          cks (name ^ ": previous file intact") before
            (In_channel.with_open_bin path In_channel.input_all))
        [ ("2^53 refused", 9007199254740992.); ("-2^53 refused", -9007199254740992.);
          ("nan refused", Float.nan); ("infinity refused", infinity) ];
      ckb "2^53 - 1 saved" true (Result.is_ok (Checkpoint.save ~path (doc 9007199254740991.))))

let test_checkpoint_rejects_corruption () =
  with_tmp "ntmon_ckpt_corrupt" (fun path ->
      let ck =
        Json.Obj
          [ ("format", Str Checkpoint.version); ("saved_at", Num 1.); ("ring", Str "payload") ]
      in
      (match Checkpoint.save ~path ck with Ok () -> () | Error e -> Alcotest.fail e);
      let raw = In_channel.with_open_bin path In_channel.input_all in
      (* flip a payload byte: digest must catch it *)
      let broken = Bytes.of_string raw in
      Bytes.set broken (String.length Checkpoint.version + 3) 'X';
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc broken);
      ckb "corruption rejected" true (Result.is_error (Checkpoint.load ~path));
      let write_signed body =
        let digest = Digest.to_hex (Digest.string body) in
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc (body ^ "\ndigest " ^ digest ^ "\n"))
      in
      (* version bump must be refused *)
      write_signed {|{"format":"ntmon-ckpt/99","saved_at":1}|};
      (match Checkpoint.load ~path with
      | Error e -> ckb "names the version" true (String.length e > 0)
      | Ok _ -> Alcotest.fail "accepted an unsupported version");
      (* a file in the previous line format, with its own valid digest *)
      let v1 = String.concat "\n" [ "ntmon-ckpt/1"; "saved_at 0x1p+0"; "feed_pos -" ] ^ "\n" in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc
            (v1 ^ "digest " ^ Digest.to_hex (Digest.string v1) ^ "\n"));
      ckb "previous format refused" true (Result.is_error (Checkpoint.load ~path)))
[@@nt.allow
  "format-literal-drift: the forked ntmon-ckpt/99 and retired ntmon-ckpt/1 tags are the \
   fixtures for the version-refusal paths"]

(* --- Service --- *)

let service_config ?(window_s = 5.) ?(windows = 3) ?(queue_cap = 1024) ?(pull_batch = 64)
    ?(drain_max = 256) ?checkpoint_path () =
  {
    Service.default_config with
    Service.ring =
      {
        Ring.window_s;
        windows;
        caps = Win.default_caps;
        summary_cap = Win.default_caps;
      };
    queue_cap;
    pull_batch;
    drain_max;
    checkpoint_path;
    checkpoint_every_s = 1e9;
    backoff_base_s = 0.001;
    backoff_cap_s = 0.016;
    idle_exit = Some 4;
  }

let run_service ?emit config records =
  let feed = Feed.of_records (List.to_seq records) in
  let obs = Obs.create () in
  let emit = match emit with Some e -> e | None -> fun _ -> () in
  let clock = ref 0. in
  let t =
    Service.create ~obs
      ~clock:(fun () -> !clock)
      ~sleep:(fun d -> clock := !clock +. d)
      ~emit config feed
  in
  Service.run t;
  t

let test_service_end_to_end () =
  let records = gen_records ~seed:21 ~rate:4. 300 in
  let reports = ref [] in
  let t = run_service ~emit:(fun s -> reports := s :: !reports) (service_config ()) records in
  cki "everything observed" 300 (Service.observed t);
  cki "nothing shed" 0 (Service.shed t);
  cki "queue drained" 0 (Service.queue_depth t);
  ckb "reports emitted" true (Service.reports_emitted t > 2);
  (match Service.conservation t with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("conservation: " ^ e));
  let snap = Obs.snapshot (Service.obs t) in
  cki "registry agrees: ingested" 300 (Obs.sum_counter snap "mon.ingested");
  cki "registry agrees: observed" 300 (Obs.sum_counter snap "mon.observed");
  cki "registry agrees: reports" (Service.reports_emitted t) (Obs.sum_counter snap "mon.reports")

let test_service_sheds_under_overload () =
  (* tiny queue, big pull batches, tiny drain quota: the monitor must
     shed but never miscount *)
  let records = gen_records ~seed:23 ~rate:50. 500 in
  let config = service_config ~queue_cap:16 ~pull_batch:128 ~drain_max:8 () in
  let t = run_service config records in
  ckb "shedding happened" true (Service.shed t > 0);
  cki "conservation: in = shed + observed" (Service.ingested t)
    (Service.shed t + Service.observed t + Service.queue_depth t);
  (match Service.conservation t with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("conservation: " ^ e));
  let snap = Obs.snapshot (Service.obs t) in
  cki "shed counter matches" (Service.shed t) (Obs.sum_counter snap "mon.shed")

let test_service_idle_backoff () =
  let idles = ref 0 in
  let feed =
    Feed.of_fn (fun () ->
        incr idles;
        `Idle)
  in
  let obs = Obs.create () in
  let sleeps = ref [] in
  let clock = ref 0. in
  let config = { (service_config ()) with Service.idle_exit = Some 6 } in
  let t =
    Service.create ~obs
      ~clock:(fun () -> !clock)
      ~sleep:(fun d ->
        sleeps := d :: !sleeps;
        clock := !clock +. d)
      ~emit:(fun _ -> ()) config feed
  in
  Service.run t;
  let sleeps = List.rev !sleeps in
  cki "one sleep per idle round" 5 (List.length sleeps);
  (match sleeps with
  | a :: b :: c :: _ ->
      Alcotest.(check (float 1e-9)) "base" 0.001 a;
      Alcotest.(check (float 1e-9)) "doubled" 0.002 b;
      Alcotest.(check (float 1e-9)) "doubled again" 0.004 c
  | _ -> Alcotest.fail "expected sleeps");
  let last = List.nth sleeps (List.length sleeps - 1) in
  ckb "capped" true (last <= 0.016 +. 1e-12)

(* The crash-safety acceptance test: run uninterrupted; then run again
   but "kill" the service right after a mid-run checkpoint (abandon it,
   no shutdown), restore a third instance from the checkpoint and let
   it finish. The restored run's final state must match the
   uninterrupted run exactly. *)
let test_service_kill_restore_equivalence () =
  with_tmp "ntmon_kill_test.trace" (fun trace_path ->
      with_tmp "ntmon_kill_test.ckpt" (fun ckpt_path ->
          let records = gen_records ~seed:31 ~rate:4. ~spread:10 400 in
          let oc = open_out trace_path in
          List.iter (fun r -> output_string oc (Record.to_line r ^ "\n")) records;
          close_out oc;
          let run_with ?checkpoint_path ~steps () =
            let feed = Feed.trace_tail trace_path in
            let obs = Obs.create () in
            let clock = ref 0. in
            let config =
              {
                (service_config ~pull_batch:32 ~drain_max:64 ?checkpoint_path ())
                with
                Service.checkpoint_every_s = (if checkpoint_path = None then 1e9 else 0.);
                idle_exit = Some 3;
              }
            in
            let t =
              Service.create ~obs
                ~clock:(fun () -> clock := !clock +. 0.01; !clock)
                ~sleep:(fun d -> clock := !clock +. d)
                ~emit:(fun _ -> ()) config feed
            in
            (match steps with
            | None -> Service.run t
            | Some k ->
                let rec go k = if k > 0 then match Service.step t with
                  | `Continue -> go (k - 1)
                  | `Stopped -> ()
                in
                go k);
            t
          in
          (* A: uninterrupted, no checkpointing *)
          let a = run_with ~steps:None () in
          (* B1: checkpoint every step, killed (abandoned) after 5 steps *)
          let b1 = run_with ~checkpoint_path:ckpt_path ~steps:(Some 5) () in
          ckb "b1 was killed mid-run" true (Service.observed b1 < List.length records);
          ckb "a checkpoint exists" true (Sys.file_exists ckpt_path);
          (* B2: restore and finish *)
          let b2 = run_with ~checkpoint_path:ckpt_path ~steps:None () in
          ckb "b2 restored" true (Service.restored b2);
          cki "same ingested" (Service.ingested a) (Service.ingested b2);
          cki "same observed" (Service.observed a) (Service.observed b2);
          cki "same shed" (Service.shed a) (Service.shed b2);
          cki "same rotations" (Ring.rotations (Service.ring a)) (Ring.rotations (Service.ring b2));
          cki "same window spills"
            (Ring.evicted_windows (Service.ring a))
            (Ring.evicted_windows (Service.ring b2));
          let totals t = Json.to_string (Win.to_json (Ring.totals (Service.ring t))) in
          cks "identical conserved totals" (totals a) (totals b2);
          cks "identical final report"
            (Service.report_json a) (Service.report_json b2);
          (match Service.conservation b2 with
          | Ok () -> ()
          | Error e -> Alcotest.fail ("restored conservation: " ^ e))))

let test_service_restore_refuses_garbage () =
  with_tmp "ntmon_badckpt" (fun ckpt_path ->
      Out_channel.with_open_bin ckpt_path (fun oc ->
          Out_channel.output_string oc "not a checkpoint at all\n");
      let records = gen_records ~seed:41 50 in
      let obs = Obs.create () in
      let feed = Feed.of_records (List.to_seq records) in
      let t =
        Service.create ~obs
          ~clock:(fun () -> 0.)
          ~sleep:(fun _ -> ())
          ~emit:(fun _ -> ())
          { (service_config ()) with Service.checkpoint_path = Some ckpt_path }
          feed
      in
      ckb "not restored" false (Service.restored t);
      Service.run t;
      cki "fresh run still works" 50 (Service.observed t);
      let snap = Obs.snapshot obs in
      cki "failure counted" 1 (Obs.sum_counter snap "mon.checkpoint.restore_failed"))

(* A checkpoint in the previous line format is refused once, with a
   counted cold start; the run's own checkpoint then restores. *)
let test_service_refuses_previous_format_once () =
  with_tmp "ntmon_v1ckpt" (fun ckpt_path ->
      let v1 = "ntmon-ckpt/1\nsaved_at 0x1p+0\nfeed_pos -\ncounters 0\n" in
      Out_channel.with_open_bin ckpt_path (fun oc ->
          Out_channel.output_string oc (v1 ^ "digest " ^ Digest.to_hex (Digest.string v1) ^ "\n"));
      let start () =
        let obs = Obs.create () in
        let t =
          Service.create ~obs
            ~clock:(fun () -> 0.)
            ~sleep:(fun _ -> ())
            ~emit:(fun _ -> ())
            { (service_config ()) with Service.checkpoint_path = Some ckpt_path }
            (Feed.of_records (List.to_seq (gen_records ~seed:43 50)))
        in
        (t, obs)
      in
      let t, obs = start () in
      ckb "previous format not restored" false (Service.restored t);
      cki "refusal counted" 1
        (Obs.sum_counter (Obs.snapshot obs) "mon.checkpoint.restore_failed");
      Service.run t;
      let t', obs' = start () in
      ckb "own checkpoint restored" true (Service.restored t');
      cki "no refusal" 0 (Obs.sum_counter (Obs.snapshot obs') "mon.checkpoint.restore_failed");
      cki "counters carried" 50 (Service.ingested t'))
[@@nt.allow
  "format-literal-drift: the retired ntmon-ckpt/1 tag is the fixture for the upgrade path"]

let () =
  Alcotest.run "nt_mon"
    [
      ( "win",
        [
          Alcotest.test_case "classification" `Quick test_win_classification;
          QCheck_alcotest.to_alcotest prop_win_eviction_conserves;
          Alcotest.test_case "serialization round trip" `Quick test_win_serialization_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_win_of_json_rejects_garbage;
        ] );
      ( "ring",
        [
          Alcotest.test_case "exact edges" `Quick test_ring_exact_edges;
          QCheck_alcotest.to_alcotest prop_ring_edges_aligned;
          QCheck_alcotest.to_alcotest prop_ring_conserves_vs_batch;
          Alcotest.test_case "time jumps" `Quick test_ring_time_jumps;
          Alcotest.test_case "serialization round trip" `Quick test_ring_serialization_roundtrip;
        ] );
      ( "ingest",
        [
          Alcotest.test_case "sheds oldest" `Quick test_ingest_sheds_oldest;
          QCheck_alcotest.to_alcotest prop_ingest_fifo_bounded;
        ] );
      ( "outstanding",
        [
          Alcotest.test_case "snapshot" `Quick test_outstanding_snapshot;
          Alcotest.test_case "bounded" `Quick test_outstanding_bounded;
          Alcotest.test_case "serialization round trip" `Quick test_outstanding_roundtrip;
        ] );
      ( "encoding",
        [
          QCheck_alcotest.to_alcotest prop_encoding_fixpoint;
          Alcotest.test_case "empty state round trips" `Quick test_encoding_empty;
          Alcotest.test_case "refusals" `Quick test_encoding_refusals;
        ] );
      ( "feed",
        [
          Alcotest.test_case "in-memory" `Quick test_feed_of_records;
          Alcotest.test_case "tail holds partial lines" `Quick test_trace_tail_partial_lines;
          Alcotest.test_case "truncation reopens" `Quick test_trace_tail_truncation_reopen;
          Alcotest.test_case "chunked tail = read_channel" `Quick
            test_trace_tail_chunks_match_read_channel;
          Alcotest.test_case "pcap tail matches a whole-file capture" `Quick
            test_pcap_tail_matches_capture;
          Alcotest.test_case "tbin tail = iter_channel" `Quick test_tbin_tail_matches_iter_channel;
          Alcotest.test_case "seek replays suffix" `Quick test_feed_seek_replays_suffix;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "round trip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "rejects corruption" `Quick test_checkpoint_rejects_corruption;
          Alcotest.test_case "refuses inexact numbers" `Quick
            test_checkpoint_refuses_inexact_numbers;
        ] );
      ( "service",
        [
          Alcotest.test_case "end to end" `Quick test_service_end_to_end;
          Alcotest.test_case "sheds under overload" `Quick test_service_sheds_under_overload;
          Alcotest.test_case "idle backoff" `Quick test_service_idle_backoff;
          Alcotest.test_case "kill/restore equivalence" `Quick
            test_service_kill_restore_equivalence;
          Alcotest.test_case "refuses garbage checkpoint" `Quick
            test_service_restore_refuses_garbage;
          Alcotest.test_case "refuses a previous-format checkpoint once" `Quick
            test_service_refuses_previous_format_once;
        ] );
    ]
