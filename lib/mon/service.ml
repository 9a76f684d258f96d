module Obs = Nt_obs.Obs
module Sampler = Nt_obs.Sampler
module Footprint = Nt_obs.Footprint
module Record = Nt_trace.Record
module Types = Nt_nfs.Types

type config = {
  ring : Ring.config;
  topn : int;
  report_every : int;
  queue_cap : int;
  pull_batch : int;
  drain_max : int;
  backoff_base_s : float;
  backoff_cap_s : float;
  watchdog_s : float;
  checkpoint_path : string option;
  checkpoint_every_s : float;
  outstanding_cap : int;
  pending_timeout : float;
  max_records : int option;
  idle_exit : int option;
  json : bool;
}

let default_emit s =
  print_string s;
  flush stdout
[@@nt.allow "lib-stdout: the monitor's report stream is stdout by contract; callers override"]

let default_config =
  {
    ring = Ring.default_config;
    topn = 10;
    report_every = 1;
    queue_cap = 65536;
    pull_batch = 1024;
    drain_max = 8192;
    backoff_base_s = 0.02;
    backoff_cap_s = 2.0;
    watchdog_s = 30.;
    checkpoint_path = None;
    checkpoint_every_s = 30.;
    outstanding_cap = 4096;
    pending_timeout = 60.;
    max_records = None;
    idle_exit = None;
    json = false;
  }

(* A ring counter mirrored into the registry: the ring keeps the
   authoritative value, the registry gets monotone deltas. *)
type mirror = { m_counter : Obs.counter; mutable m_last : int }

let mirror_sync m cur =
  if cur > m.m_last then begin
    Obs.add m.m_counter (cur - m.m_last);
    m.m_last <- cur
  end

type t = {
  config : config;
  feed : Feed.t;
  o : Obs.t;
  clock : unit -> float;
  sleep : float -> unit;
  emit : string -> unit;
  tick : unit -> unit;
  queue : Record.t Ingest.t;
  mutable ring : Ring.t;
  mutable out : Outstanding.t;  (* replaced wholesale on restore *)
  (* service counters: authoritative ints + registry handles *)
  mutable ingested : int;
  mutable shed : int;
  mutable reports : int;
  c_ingested : Obs.counter;
  c_shed : Obs.counter;
  c_reports : Obs.counter;
  c_ckpt_saved : Obs.counter;
  c_ckpt_save_failed : Obs.counter;
  c_ckpt_restored : Obs.counter;
  c_ckpt_restore_failed : Obs.counter;
  (* ring/outstanding counters mirrored into the registry *)
  m_observed : mirror;
  m_rotations : mirror;
  m_evicted_windows : mirror;
  m_late : mirror;
  m_backward : mirror;
  m_jumps : mirror;
  m_tables : (Win.table * mirror) list;
  m_pending_lost : mirror;
  m_pending_dropped : mirror;
  g_queue : Obs.gauge;
  g_outstanding : Obs.gauge;
  g_backoff : Obs.gauge;
  g_stalled : Obs.gauge;
  g_heap : Obs.gauge;
  sampler : Sampler.t;
  mutable stop_requested : bool;
  mutable stopped : bool;
  mutable shutdown_done : bool;
  mutable was_restored : bool;
  mutable idle_streak : int;
  mutable backoff_s : float;
  mutable last_progress : float;
  mutable last_checkpoint : float;
  mutable rotations_reported : int;
}

let footprints t =
  [
    ("mon.ring", Ring.footprint t.ring);
    ("mon.outstanding", Outstanding.footprint t.out);
    ("mon.ingest", Ingest.footprint t.queue);
  ]

let sync t =
  mirror_sync t.m_observed (Ring.observed t.ring);
  mirror_sync t.m_rotations (Ring.rotations t.ring);
  mirror_sync t.m_evicted_windows (Ring.evicted_windows t.ring);
  mirror_sync t.m_late (Ring.late t.ring);
  mirror_sync t.m_backward (Ring.backward t.ring);
  mirror_sync t.m_jumps (Ring.forward_jumps t.ring);
  List.iter
    (fun (table, n) ->
      match List.assoc_opt table t.m_tables with
      | Some m -> mirror_sync m n
      | None -> ())
    (Ring.evictions t.ring);
  mirror_sync t.m_pending_lost (Outstanding.lost t.out);
  mirror_sync t.m_pending_dropped (Outstanding.dropped t.out);
  Obs.set t.g_queue (float_of_int (Ingest.length t.queue));
  Obs.set t.g_outstanding (float_of_int (Outstanding.outstanding t.out))
(* Footprint gauges are NOT refreshed in [sync]: it runs every step,
   and walking every window table that often is measurable garbage.
   They refresh at sampling cadence instead — [Sampler.sample_now]
   (every report, every /series scrape, each elapsed interval)
   republishes. *)

(* --- reports --- *)

let stable_name = function
  | Types.Unstable -> "unstable"
  | Types.Data_sync -> "data_sync"
  | Types.File_sync -> "file_sync"

let report_win t =
  (* The most recently closed window when one is retained, else the
     (partial) current window, else the summary. *)
  match Ring.live t.ring with
  | _ :: prev :: _ -> prev
  | [ w ] -> w
  | [] -> (Float.nan, Ring.summary t.ring)

let win_section b ~topn ~prefix w =
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  line "%sops=%d reads=%d(%dB) writes=%d(%dB) commits=%d lost_replies=%d" prefix
    (Win.total_ops w) (Win.read_ops w) (Win.read_bytes w) (Win.write_ops w) (Win.write_bytes w)
    (Win.commit_ops w) (Win.lost_replies w);
  let stables =
    List.map
      (fun (s, (r : Win.row)) -> Printf.sprintf "%s=%d(%dB)" (stable_name s) r.Win.ops r.Win.write_bytes)
      (Win.writes_by_stable w)
  in
  line "%swrites by stable: %s" prefix (String.concat " " stables);
  List.iter
    (fun (table, title) ->
      let rows = Win.top w table topn in
      if rows <> [] then begin
        line "%stop %s:" prefix title;
        List.iter
          (fun (key, (r : Win.row)) ->
            line "%s  %-24s ops=%-8d rd=%-10d wr=%d" prefix key r.Win.ops r.Win.read_bytes
              r.Win.write_bytes)
          rows;
        let other = Win.other_row w table in
        if other.Win.ops > 0 then
          line "%s  %-24s ops=%-8d rd=%-10d wr=%d (evicted=%d)" prefix "(other)" other.Win.ops
            other.Win.read_bytes other.Win.write_bytes (Win.evictions w table)
      end)
    [ (`Client, "clients"); (`Uid, "uids"); (`Fs, "filesystems") ]

let report_text t =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  let start, w = report_win t in
  let now = match Ring.newest t.ring with Some s -> s | None -> Float.nan in
  line "=== nfsmon report #%d  feed-time=%.3f  window-start=%.3f ===" (t.reports + 1) now start;
  win_section b ~topn:t.config.topn ~prefix:"" w;
  line "outstanding: %d lost=%d dropped=%d" (Outstanding.outstanding t.out)
    (Outstanding.lost t.out) (Outstanding.dropped t.out);
  (match Outstanding.by_proc t.out with
  | [] -> ()
  | procs ->
      line "  by proc: %s"
        (String.concat " " (List.map (fun (p, n) -> Printf.sprintf "%s=%d" p n) procs)));
  let ev =
    String.concat " "
      (List.map
         (fun (tab, n) -> Printf.sprintf "%s=%d" (Win.table_name tab) n)
         (Ring.evictions t.ring))
  in
  line "health: ingested=%d shed=%d observed=%d queue=%d/%d evictions[%s] late=%d backward=%d jumps=%d rotations=%d"
    t.ingested t.shed (Ring.observed t.ring) (Ingest.length t.queue) (Ingest.capacity t.queue) ev
    (Ring.late t.ring) (Ring.backward t.ring) (Ring.forward_jumps t.ring) (Ring.rotations t.ring);
  Buffer.contents b

let report_json t =
  let start, w = report_win t in
  let now = match Ring.newest t.ring with Some s -> s | None -> Float.nan in
  let open Obs.Json in
  let counts l = Obj (List.map (fun (k, n) -> (k, int n)) l) in
  let row (key, (r : Win.row)) =
    Obj [ ("key", Str key); ("ops", int r.Win.ops); ("read_bytes", int r.Win.read_bytes);
          ("write_bytes", int r.Win.write_bytes) ]
  in
  let rows tab = Arr (List.map row (Win.top w tab t.config.topn)) in
  let stable (s, (r : Win.row)) =
    (stable_name s, Obj [ ("ops", int r.Win.ops); ("bytes", int r.Win.write_bytes) ])
  in
  let evictions = List.map (fun (tab, n) -> (Win.table_name tab, n)) (Ring.evictions t.ring) in
  to_string
    (Obj
       [ ("schema", Str Nt_formats.Formats.mon_report); ("report", int (t.reports + 1));
         ("feed_time", Num now); ("window_start", Num start); ("ops", int (Win.total_ops w));
         ("read_ops", int (Win.read_ops w)); ("read_bytes", int (Win.read_bytes w));
         ("write_ops", int (Win.write_ops w)); ("write_bytes", int (Win.write_bytes w));
         ("commit_ops", int (Win.commit_ops w)); ("lost_replies", int (Win.lost_replies w));
         ("writes_by_stable", Obj (List.map stable (Win.writes_by_stable w)));
         ("clients", rows `Client); ("uids", rows `Uid); ("filesystems", rows `Fs);
         ( "outstanding",
           Obj [ ("count", int (Outstanding.outstanding t.out));
                 ("lost", int (Outstanding.lost t.out));
                 ("dropped", int (Outstanding.dropped t.out));
                 ("by_proc", counts (Outstanding.by_proc t.out)) ] );
         ( "health",
           Obj [ ("ingested", int t.ingested); ("shed", int t.shed);
                 ("observed", int (Ring.observed t.ring)); ("queue", int (Ingest.length t.queue));
                 ("queue_cap", int (Ingest.capacity t.queue)); ("evictions", counts evictions);
                 ("late", int (Ring.late t.ring)); ("backward", int (Ring.backward t.ring));
                 ("jumps", int (Ring.forward_jumps t.ring));
                 ("rotations", int (Ring.rotations t.ring)) ] ) ])

let emit_report t =
  t.rotations_reported <- Ring.rotations t.ring;
  t.emit (if t.config.json then report_json t ^ "\n" else report_text t);
  t.reports <- t.reports + 1;
  Obs.inc t.c_reports;
  (* Heap numbers come from the sampler — the one audited probe — and
     mon.top_heap_words keeps its historical meaning as the peak. *)
  let s = Sampler.sample_now t.sampler in
  Obs.set_max t.g_heap (float_of_int s.Sampler.top_heap_words)

(* --- checkpoints --- *)

let drain t limit =
  let n = ref 0 in
  while !n < limit && not (Ingest.is_empty t.queue) do
    (match Ingest.pop t.queue with
    | Some r ->
        Ring.observe t.ring r;
        Outstanding.note t.out r;
        Sampler.tick t.sampler
    | None -> ());
    incr n
  done;
  !n

let save_checkpoint t =
  match t.config.checkpoint_path with
  | None -> ()
  | Some path ->
      (* Drain first so ring state and feed offset agree: everything
         pulled before this offset is in the ring, nothing after it
         is. That makes kill-9 + restore an exact replay. *)
      ignore (drain t max_int);
      (match Ring.newest t.ring with
      | Some now -> Outstanding.advance t.out ~now
      | None -> ());
      sync t;
      let doc =
        Obs.Json.(
          Obj
            [ ("format", Str Checkpoint.version); ("saved_at", Num (t.clock ()));
              ( "feed_pos",
                match Feed.pos t.feed with Some off -> Num (Int64.to_float off) | None -> Null );
              ( "counters",
                Obj
                  [ ("ingested", int t.ingested); ("shed", int t.shed);
                    ("reports", int t.reports) ] );
              ("ring", Ring.to_json t.ring); ("pending", Outstanding.to_json t.out) ])
      in
      (match Checkpoint.save ~path doc with
      | Ok () -> Obs.inc t.c_ckpt_saved
      | Error _ -> Obs.inc t.c_ckpt_save_failed);
      t.last_checkpoint <- t.clock ()

(* Everything but the pending calls must read back, or the restore is
   refused whole. *)
let read_checkpoint t path =
  let ( let* ) = Result.bind in
  let int v = Option.to_result ~none:"checkpoint: bad integer" (Obs.Json.to_int v) in
  let* doc = Checkpoint.load ~path in
  let* f =
    Obs.Json.fields [ "format"; "saved_at"; "feed_pos"; "counters"; "ring"; "pending" ] doc
  in
  match f with
  | [ _; Num _; feed_pos; counters; ring; pending ] -> (
      let* c = Obs.Json.fields [ "ingested"; "shed"; "reports" ] counters in
      match c with
      | [ ingested; shed; reports ] ->
          let* feed_pos =
            match feed_pos with Null -> Ok None | v -> Result.map Option.some (int v)
          in
          let* ingested = int ingested in
          let* shed = int shed in
          let* reports = int reports in
          let* ring = Ring.of_json t.config.ring ring in
          Ok (Option.map Int64.of_int feed_pos, (ingested, shed, reports), ring, pending)
      | _ -> Error "checkpoint: bad counters")
  | _ -> Error "checkpoint: bad saved_at"

let restore t =
  match t.config.checkpoint_path with
  | Some path when Sys.file_exists path -> (
      match read_checkpoint t path with
      | Error _ -> Obs.inc t.c_ckpt_restore_failed
      | Ok (feed_pos, (ingested, shed, reports), ring, pending) ->
          t.ring <- ring;
          (match
             Outstanding.of_json ~cap:t.config.outstanding_cap ~timeout:t.config.pending_timeout
               pending
           with
          | Ok out -> t.out <- out
          | Error _ ->
              (* the aggregated state is still good; start the
                 in-flight tracker fresh rather than refuse *)
              Obs.inc t.c_ckpt_restore_failed);
          t.ingested <- ingested;
          Obs.add t.c_ingested ingested;
          t.shed <- shed;
          Obs.add t.c_shed shed;
          t.reports <- reports;
          Obs.add t.c_reports reports;
          t.rotations_reported <- Ring.rotations ring;
          (match feed_pos with Some off -> ignore (Feed.seek t.feed off) | None -> ());
          (* Downtime must not bleed into span durations or leave
             the registry clock behind the wall clock. *)
          Obs.reanchor t.o;
          sync t;
          t.was_restored <- true;
          Obs.inc t.c_ckpt_restored)
  | _ -> ()

(* --- lifecycle --- *)

let create ?obs ?clock ?sleep ?emit ?tick config feed =
  let o = match obs with Some o -> o | None -> Obs.create () in
  let clock = match clock with Some c -> c | None -> Unix.gettimeofday in
  let sleep = match sleep with Some s -> s | None -> Unix.sleepf in
  let emit = match emit with Some e -> e | None -> default_emit in
  let tick = match tick with Some f -> f | None -> Fun.id in
  let mir ?labels name = { m_counter = Obs.counter o ?labels name; m_last = 0 } in
  let t =
    {
      config;
      feed;
      o;
      clock;
      sleep;
      emit;
      tick;
      queue = Ingest.create ~capacity:config.queue_cap;
      ring = Ring.create config.ring;
      out = Outstanding.create ~cap:config.outstanding_cap ~timeout:config.pending_timeout ();
      ingested = 0;
      shed = 0;
      reports = 0;
      c_ingested = Obs.counter o "mon.ingested";
      c_shed = Obs.counter o "mon.shed";
      c_reports = Obs.counter o "mon.reports";
      c_ckpt_saved = Obs.counter o "mon.checkpoint.saved";
      c_ckpt_save_failed = Obs.counter o "mon.checkpoint.save_failed";
      c_ckpt_restored = Obs.counter o "mon.checkpoint.restored";
      c_ckpt_restore_failed = Obs.counter o "mon.checkpoint.restore_failed";
      m_observed = mir "mon.observed";
      m_rotations = mir "mon.rotations";
      m_evicted_windows = mir "mon.window_evictions";
      m_late = mir "mon.late";
      m_backward = mir "mon.backward";
      m_jumps = mir "mon.forward_jumps";
      m_tables =
        List.map
          (fun tab -> (tab, mir ~labels:[ ("table", Win.table_name tab) ] "mon.evictions"))
          Win.all_tables;
      m_pending_lost = mir "mon.pending.lost";
      m_pending_dropped = mir "mon.pending.dropped";
      g_queue = Obs.gauge o "mon.queue.depth";
      g_outstanding = Obs.gauge o "mon.outstanding";
      g_backoff = Obs.gauge o "mon.backoff_s";
      g_stalled = Obs.gauge o "mon.feed.stalled";
      g_heap = Obs.gauge o "mon.top_heap_words";
      sampler = Sampler.create o;
      stop_requested = false;
      stopped = false;
      shutdown_done = false;
      was_restored = false;
      idle_streak = 0;
      backoff_s = config.backoff_base_s;
      last_progress = clock ();
      last_checkpoint = clock ();
      rotations_reported = 0;
    }
  in
  Sampler.set_footprints t.sampler (fun () -> footprints t);
  ignore (Sampler.publish_footprints t.sampler : (string * Footprint.t) list);
  restore t;
  t

let request_stop t = t.stop_requested <- true

let shutdown t =
  if not t.shutdown_done then begin
    t.shutdown_done <- true;
    t.stopped <- true;
    ignore (drain t max_int);
    (match Ring.newest t.ring with
    | Some now -> Outstanding.advance t.out ~now
    | None -> ());
    if Ring.anchored t.ring then Ring.force_rotate t.ring;
    sync t;
    emit_report t;
    save_checkpoint t;
    Feed.close t.feed
  end

let step t =
  if t.stopped then `Stopped
  else begin
    t.tick ();
    if t.stop_requested then begin
      shutdown t;
      `Stopped
    end
    else begin
      let pulled = ref 0 and closed = ref false and idle = ref false in
      while !pulled < t.config.pull_batch && (not !closed) && not !idle do
        match Feed.pull t.feed with
        | `Record r ->
            incr pulled;
            t.ingested <- t.ingested + 1;
            Obs.inc t.c_ingested;
            (match Ingest.push t.queue r with
            | Some _shed_oldest ->
                t.shed <- t.shed + 1;
                Obs.inc t.c_shed
            | None -> ())
        | `Idle -> idle := true
        | `Closed -> closed := true
      done;
      if !pulled > 0 then t.last_progress <- t.clock ();
      let drained = drain t t.config.drain_max in
      (match Ring.newest t.ring with
      | Some now -> Outstanding.advance t.out ~now
      | None -> ());
      sync t;
      if Ring.anchored t.ring && Ring.rotations t.ring - t.rotations_reported >= t.config.report_every
      then emit_report t;
      (match t.config.checkpoint_path with
      | Some _ when t.clock () -. t.last_checkpoint >= t.config.checkpoint_every_s ->
          save_checkpoint t
      | _ -> ());
      Obs.set t.g_stalled
        (if t.clock () -. t.last_progress > t.config.watchdog_s then 1. else 0.);
      let done_by_count =
        match t.config.max_records with Some n -> Ring.observed t.ring >= n | None -> false
      in
      if done_by_count || (!closed && Ingest.is_empty t.queue) then begin
        shutdown t;
        `Stopped
      end
      else if !pulled = 0 && drained = 0 then begin
        t.idle_streak <- t.idle_streak + 1;
        match t.config.idle_exit with
        | Some n when t.idle_streak >= n ->
            shutdown t;
            `Stopped
        | _ ->
            Obs.set t.g_backoff t.backoff_s;
            t.sleep t.backoff_s;
            t.backoff_s <- Float.min (t.backoff_s *. 2.) t.config.backoff_cap_s;
            `Continue
      end
      else begin
        t.idle_streak <- 0;
        t.backoff_s <- t.config.backoff_base_s;
        Obs.set t.g_backoff 0.;
        `Continue
      end
    end
  end

let rec run t = match step t with `Continue -> run t | `Stopped -> ()

let conservation t =
  let observed = Ring.observed t.ring in
  let q = Ingest.length t.queue in
  if t.ingested <> t.shed + observed + q then
    Error
      (Printf.sprintf "ingested(%d) <> shed(%d) + observed(%d) + queue(%d)" t.ingested t.shed
         observed q)
  else
    let totals = Ring.totals t.ring in
    if Win.total_ops totals <> observed then
      Error
        (Printf.sprintf "ring totals ops(%d) <> observed(%d)" (Win.total_ops totals) observed)
    else Ok ()

let ring t = t.ring
let obs t = t.o
let sampler t = t.sampler
let ingested t = t.ingested
let shed t = t.shed
let observed t = Ring.observed t.ring
let queue_depth t = Ingest.length t.queue
let reports_emitted t = t.reports
let restored t = t.was_restored
