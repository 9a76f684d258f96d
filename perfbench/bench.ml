(* The in-process half of the benchmark; run.py drives it.

     bench.exe setup  --workload W --seed N --dir D [--scale X]
     bench.exe check  --dir D
     bench.exe traced --dir D
     bench.exe ref

   [setup] generates the workload's input from the seed ([setup_repeat]
   times, timing each) into D/input, and records what the generator knows
   about it in D/expect.bin. [check] compares one run of the real binary
   (D/out.trace, D/stdout, D/stderr) against that knowledge. [traced] runs
   the binary's code path in this process with a bracket around every call
   into a layer, plus a shadow pass that calls the sub-layers the way
   [Nt_trace.Capture] does, and prints the per-layer rows. [ref] times a
   reference kernel, and so does [check] after its checks; both run it
   once in a fresh process, the way every binary run starts. Each command
   prints one JSON object on stdout. *)

module Obs = Nt_obs.Obs
module Pcap = Nt_net.Pcap
module Frame = Nt_net.Frame
module Tcp = Nt_net.Tcp_reassembly
module Rm = Nt_rpc.Record_mark
module Rpc = Nt_rpc.Rpc_msg
module Xdr = Nt_xdr.Decode
module Proc = Nt_nfs.Proc
module Capture = Nt_trace.Capture
module Record = Nt_trace.Record
module Pipeline = Nt_core.Pipeline
module Fault = Nt_sim.Fault
module Report = Nt_par.Report

(* --- workloads --- *)

type system = Campus | Eecs
type kind = Trace of { faults : bool } | Stats of { tbin : bool; jobs : int }

type workload = {
  name : string;
  system : system;
  users : int;
  records : int;  (** the input's record count at scale 1 *)
  kind : kind;
}

(* Sized so one run of the binary takes about half a second on a 2-core
   x86-64 container. The record count is fixed, so the numerator of
   rec_per_s is the same for every seed. *)
let workloads =
  [
    { name = "campus-tcp-trace"; system = Campus; users = 50; records = 20_000;
      kind = Trace { faults = false } };
    { name = "eecs-udp-lossy-trace"; system = Eecs; users = 200; records = 40_000;
      kind = Trace { faults = true } };
    { name = "campus-tbin-stats"; system = Campus; users = 360; records = 160_000;
      kind = Stats { tbin = true; jobs = 2 } };
    { name = "eecs-text-stats"; system = Eecs; users = 400; records = 100_000;
      kind = Stats { tbin = false; jobs = 1 } };
  ]

(* The lossy workload's monitor: campus_burst's bursty loss, duplication,
   reordering and clock jitter, with its corruption confined to one IPv4
   address byte and its truncation cut inside the IPv4 header. Then every
   damaged frame fails the checksum or the frame decode, so each injected
   fault lands in exactly one capture counter. Flips anywhere in the frame
   would reach the RPC header, whose corrupted version field Capture
   decodes as NFSv3 and writes as a line Record.of_line rejects. *)
let lossy_plan =
  { Fault.campus_burst with corrupt_addrs_only = true; corrupt_bytes = 1; truncate_to = 30 }

let sections : Report.section list = [ `Summary; `Runs; `Names; `Hourly ]

let input_name w =
  match w.kind with
  | Trace _ -> "input.pcap"
  | Stats { tbin; _ } -> if tbin then "input.ntb" else "input.trace"

(* The real binary and its arguments; run.py resolves the binary and the
   D/ prefix. Stats binaries write the report to stdout. *)
let argv w =
  match w.kind with
  | Trace _ -> [ "nfstrace"; input_name w; "-o"; "out.trace" ]
  | Stats { jobs; _ } ->
      [ "nfsstats"; "-a"; "summary,runs,names,hourly"; "--jobs"; string_of_int jobs; input_name w ]

type gen = { w : workload; seed : int; limit : int }

exception Enough

(* The first [g.limit] records of a day simulated from Wednesday 9am, in
   call-time order. *)
let simulate g ~sink =
  let start = Nt_util.Trace_week.time_of ~day:Nt_util.Trace_week.Wed ~hour:9 ~minute:0 in
  let stop = start +. 86400. in
  let seed = Int64.of_int g.seed and users = g.w.users in
  let n = ref 0 in
  let sink r =
    if !n = g.limit then raise Enough;
    incr n;
    sink r
  in
  match
    match g.w.system with
    | Campus ->
        let config = { Nt_workload.Email.default_config with users; seed } in
        Pipeline.simulate_campus ~config ~start ~stop ~sink ()
    | Eecs ->
        let config = { Nt_workload.Research.default_config with users; seed } in
        Pipeline.simulate_eecs ~config ~start ~stop ~sink ()
  with
  | (_ : Pipeline.run_stats) | exception Enough -> ()

(* Generate the input into [buf]; for pcaps, also return the frames
   written and the injector's counts. *)
let generate g buf =
  Buffer.clear buf;
  match g.w.kind with
  | Trace { faults } ->
      let transport =
        match g.w.system with
        | Campus -> Nt_sim.Packet_pipe.Tcp_transport
        | Eecs -> Nt_sim.Packet_pipe.Udp_transport
      in
      let fault = if faults then lossy_plan else Fault.none in
      let pipe =
        Nt_sim.Packet_pipe.create ~fault ~seed:(Int64.of_int g.seed) ~transport
          ~writer:(Pcap.writer_to_buffer buf) ()
      in
      simulate g ~sink:(Nt_sim.Packet_pipe.push pipe);
      Nt_sim.Packet_pipe.finish pipe;
      Some (Nt_sim.Packet_pipe.packets_written pipe, Nt_sim.Packet_pipe.faults pipe)
  | Stats { tbin = true; _ } ->
      let wr = Nt_tbin.Writer.create (Buffer.add_string buf) in
      simulate g ~sink:(Nt_tbin.Writer.add wr);
      Nt_tbin.Writer.close wr;
      None
  | Stats { tbin = false; _ } ->
      simulate g ~sink:(fun r ->
          Buffer.add_string buf (Record.to_line r);
          Buffer.add_char buf '\n');
      None

(* --- what the generator knows --- *)

type expect = {
  workload : string;
  records : int;
  ops : (string * int) list;  (** calls per procedure, sorted *)
  io_bytes : int;  (** sum of {!Record.io_bytes} *)
  packets : int;  (** frames written to the pcap *)
  faults : Fault.counts;
  report : string;  (** the expected nfsstats stdout; "" for trace workloads *)
}

(* Calls per procedure and bytes moved, from any record stream. *)
type tally = { by_proc : (string, int) Hashtbl.t; mutable n : int; mutable bytes : int;
               mutable answered : int }

let tally () = { by_proc = Hashtbl.create 32; n = 0; bytes = 0; answered = 0 }

let count t (r : Record.t) =
  let p = Proc.to_string (Record.proc r) in
  Hashtbl.replace t.by_proc p (1 + Option.value ~default:0 (Hashtbl.find_opt t.by_proc p));
  t.n <- t.n + 1;
  t.bytes <- t.bytes + Record.io_bytes r;
  if r.reply_time <> None then t.answered <- t.answered + 1

let ops t = List.sort compare (List.of_seq (Hashtbl.to_seq t.by_proc))

let expect_of g pcap =
  let t = tally () in
  let report =
    match g.w.kind with
    | Trace _ ->
        simulate g ~sink:(count t);
        ""
    | Stats _ ->
        let texts, _ =
          Pipeline.analyze_stream ~sections (fun push ->
              simulate g ~sink:(fun r ->
                  count t r;
                  push r))
        in
        String.concat "" (List.map (fun (_, text) -> text ^ "\n") texts)
  in
  let packets, faults =
    match pcap with
    | Some pf -> pf
    | None -> (0, Fault.counts (Fault.create Fault.none))
  in
  { workload = g.w.name; records = t.n; ops = ops t; io_bytes = t.bytes; packets; faults; report }

(* --- JSON output --- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float f = if Float.is_finite f then Printf.sprintf "%.17g" f else "0"
let json_obj fields = "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"
let json_list vs = "[" ^ String.concat ", " vs ^ "]"

(* --- checks --- *)

type verdict = { problems : string list; delivered : float }

let problems = ref []
let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt
let expect_eq what want got = if want <> got then fail "%s: expected %d, got %d" what want got
let expect_le what bound got = if got > bound then fail "%s: %d exceeds %d" what got bound

let verdict delivered =
  let v = { problems = List.rev !problems; delivered } in
  problems := [];
  v

(* "nfstrace: frames=9714 undecodable=0 ..." as an association list. *)
let parse_stats line =
  List.filter_map
    (fun kv ->
      match String.index_opt kv '=' with
      | Some i -> (
          match int_of_string_opt (String.sub kv (i + 1) (String.length kv - i - 1)) with
          | Some v -> Some (String.sub kv 0 i, v)
          | None -> None)
      | None -> None)
    (String.split_on_char ' ' line)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let tally_trace path =
  let t = tally () in
  let bad = ref 0 in
  In_channel.with_open_bin path (fun ic ->
      let rec loop () =
        match In_channel.input_line ic with
        | None -> ()
        | Some line ->
            (match Record.of_line line with Ok r -> count t r | Error _ -> incr bad);
            loop ()
      in
      loop ());
  (t, !bad)

(* A trace run: [stats] is Capture's stats line, [out] the written trace. *)
let check_trace e ~faults stats out =
  let get k = match List.assoc_opt k stats with Some v -> v | None -> fail "stats: no %s" k; 0 in
  let t, bad = tally_trace out in
  expect_eq "unparsable output lines" 0 bad;
  expect_eq "output records = calls" (get "calls") t.n;
  expect_eq "output records with a reply = replies" (get "replies") t.answered;
  expect_eq "calls = replies + lost replies" (get "calls") (get "replies" + get "lost_replies");
  List.iter (fun k -> expect_eq k 0 (get k)) [ "tcp_gaps"; "salvaged"; "skipped_bytes"; "truncated_tails" ];
  if not faults then begin
    expect_eq "frames = packets written" e.packets (get "frames");
    expect_eq "calls = records generated" e.records (get "calls");
    expect_eq "replies = records generated" e.records (get "replies");
    List.iter
      (fun k -> expect_eq k 0 (get k))
      [ "undecodable"; "corrupt"; "rpc_errors"; "non_nfs"; "dup_calls"; "dup_replies";
        "orphan_replies"; "lost_replies" ];
    expect_eq "bytes moved" e.io_bytes t.bytes;
    if ops t <> e.ops then fail "calls per procedure differ from the generated records"
  end
  else begin
    (* Every frame the injector emitted reaches the capture and lands in
       exactly one of three frame-level counters. *)
    let f = e.faults in
    expect_eq "injector: presented - dropped + duplicated = emitted" f.emitted
      (f.presented - f.dropped + f.duplicated);
    expect_eq "frames = frames the injector emitted" f.emitted (get "frames");
    expect_eq "frames = packets written" e.packets (get "frames");
    expect_eq "frames = undecodable + corrupt + rpc messages" (get "frames")
      (get "undecodable" + get "corrupt" + get "rpc");
    expect_eq "corrupt frames = injected corruptions" f.corrupted (get "corrupt");
    expect_eq "undecodable frames = injected truncations" f.truncated (get "undecodable");
    expect_eq "rpc_errors" 0 (get "rpc_errors");
    expect_eq "non_nfs" 0 (get "non_nfs");
    (* A duplicate whose original was dropped or damaged counts as a call
       or an orphan instead, so duplicates bound these counters. *)
    expect_le "duplicate calls + replies <= injected duplicates" f.duplicated
      (get "dup_calls" + get "dup_replies");
    expect_le "calls <= records generated" e.records (get "calls");
    if f.dropped = 0 then fail "the fault plan dropped nothing"
  end;
  verdict (float_of_int (get "replies") /. float_of_int (max 1 e.records))

let first_difference a b =
  let n = min (String.length a) (String.length b) in
  let rec go i = if i < n && a.[i] = b.[i] then go (i + 1) else i in
  go 0

let check_report e text =
  if not (String.equal text e.report) then
    fail "report differs from the in-process analyze_stream report at byte %d"
      (first_difference text e.report)

let check_stats e ~out ~err =
  check_report e (read_file out);
  let loaded =
    List.find_map
      (fun line -> Scanf.sscanf_opt line "nfsstats: %d records loaded" Fun.id)
      (String.split_on_char '\n' (read_file err))
  in
  let loaded = match loaded with Some n -> n | None -> fail "no records-loaded line"; 0 in
  expect_eq "records loaded = records in the file" e.records loaded;
  verdict (float_of_int loaded /. float_of_int (max 1 e.records))

(* --- layer brackets --- *)

external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]
(* CLOCK_MONOTONIC in ns, through the stub of bechamel.monotonic_clock. *)

let now () = Int64.to_int (clock_ns ())

type layer = { mutable ns : int; mutable words : int; mutable major : int; mutable calls : int }

let layer () = { ns = 0; words = 0; major = 0; calls = 0 }

(* Time one call and charge its allocation to [l]: words = minor + direct
   major, major = direct major only (major - promoted in Gc.counters).
   Minor words come from Gc.minor_words, which is exact; the minor count
   in Gc.counters is not on OCaml 5.1. *)
let timed l f x =
  let t0 = now () in
  let mi0 = Gc.minor_words () in
  let _, pr0, ma0 = Gc.counters () in
  let stop () =
    let _, pr1, ma1 = Gc.counters () in
    let mi1 = Gc.minor_words () in
    let t1 = now () in
    let direct = ma1 -. pr1 -. (ma0 -. pr0) in
    l.ns <- l.ns + (t1 - t0);
    l.words <- l.words + int_of_float (mi1 -. mi0 +. direct);
    l.major <- l.major + int_of_float direct;
    l.calls <- l.calls + 1
  in
  match f x with
  | r ->
      stop ();
      r
  | exception e ->
      stop ();
      raise e

(* The bracket's own cost: as seen from inside it ([self_*], charged to
   the layer it wraps) and from an enclosing bracket ([nested_*]). *)
type cal = { self_ns : float; self_words : float; nested_ns : float; nested_words : float }

let calibrate () =
  let n = 20_000 in
  let l = layer () in
  let samples =
    Array.init n (fun _ ->
        let before = l.ns in
        timed l ignore ();
        l.ns - before)
  in
  Array.sort compare samples;
  let self_words = float_of_int l.words /. float_of_int n in
  let w0 = Gc.minor_words () and t0 = now () in
  for _ = 1 to n do
    timed l ignore ()
  done;
  let t1 = now () and w1 = Gc.minor_words () in
  {
    self_ns = float_of_int samples.(n / 2);
    self_words;
    nested_ns = float_of_int (t1 - t0) /. float_of_int n;
    nested_words = (w1 -. w0) /. float_of_int n;
  }

(* A layer's totals with the bracket cost taken out; [inner] brackets ran
   inside this layer's brackets. *)
type cost = { c_ns : float; c_words : float; c_major : float }

let cost cal ?(inner = 0) l =
  let k = float_of_int l.calls and i = float_of_int inner in
  {
    c_ns = float_of_int l.ns -. (k *. cal.self_ns) -. (i *. cal.nested_ns);
    c_words = float_of_int l.words -. (k *. cal.self_words) -. (i *. cal.nested_words);
    c_major = float_of_int l.major;
  }

let zero = { c_ns = 0.; c_words = 0.; c_major = 0. }
let minus a b = { c_ns = a.c_ns -. b.c_ns; c_words = a.c_words -. b.c_words; c_major = a.c_major -. b.c_major }
let per x n = if n > 0 then x /. float_of_int n else 0.

(* --- shadow capture: Capture's sub-layer calls, in Capture's order --- *)

type shadow = {
  frame : layer;
  tcp : layer;
  rm : layer;
  rpc : layer;
  nfs : layer;
  mutable frames : int;
  mutable undecodable : int;
  mutable corrupt : int;
  mutable rpc_messages : int;
  mutable rpc_errors : int;
  mutable rpc_failed : int;
  mutable non_nfs : int;
  mutable nfs_failed : int;
  mutable calls : int;
  mutable replies : int;
  mutable dup_calls : int;
  mutable dup_replies : int;
  mutable orphans : int;
  mutable gaps : int;
  mutable rm_msgs : int;
}

type pend = { p_time : float; p_version : int; p_proc : Proc.t }

let pending_timeout = 60. (* Capture.create's default *)

let shadow_capture path =
  let s =
    { frame = layer (); tcp = layer (); rm = layer (); rpc = layer (); nfs = layer ();
      frames = 0; undecodable = 0; corrupt = 0; rpc_messages = 0; rpc_errors = 0;
      rpc_failed = 0; non_nfs = 0; nfs_failed = 0; calls = 0; replies = 0; dup_calls = 0;
      dup_replies = 0; orphans = 0; gaps = 0; rm_msgs = 0 }
  in
  let pending : (int * int, pend) Hashtbl.t = Hashtbl.create 4096 in
  let answered : (int * int, float) Hashtbl.t = Hashtbl.create 4096 in
  let last_sweep = ref 0. in
  let flush_expired now =
    if now -. !last_sweep >= pending_timeout /. 2. then begin
      last_sweep := now;
      let old tbl at = Hashtbl.fold (fun k v acc -> if now -. at v > pending_timeout then k :: acc else acc) tbl [] in
      List.iter (Hashtbl.remove pending) (old pending (fun p -> p.p_time));
      List.iter (Hashtbl.remove answered) (old answered Fun.id)
    end
  in
  let body ~pos msg = Xdr.of_string ~pos msg in
  let decode_call ~version ~proc (msg, pos) =
    if version = 2 then Nt_nfs.V2.decode_call ~proc (body ~pos msg)
    else Nt_nfs.V3.decode_call ~proc (body ~pos msg)
  in
  let decode_result ~version ~proc (msg, pos) =
    if version = 2 then Nt_nfs.V2.decode_result ~proc (body ~pos msg)
    else Nt_nfs.V3.decode_result ~proc (body ~pos msg)
  in
  let nfs_failed () =
    s.rpc_errors <- s.rpc_errors + 1;
    s.nfs_failed <- s.nfs_failed + 1
  in
  let handle ~time ~src ~dst msg =
    s.rpc_messages <- s.rpc_messages + 1;
    match timed s.rpc (fun m -> Rpc.decode m ~pos:0 ~len:(String.length m)) msg with
    | exception Xdr.Error _ ->
        s.rpc_errors <- s.rpc_errors + 1;
        s.rpc_failed <- s.rpc_failed + 1
    | Rpc.Call c, pos ->
        if c.prog <> Rpc.nfs_program then s.non_nfs <- s.non_nfs + 1
        else if Hashtbl.mem pending (src, c.xid) || Hashtbl.mem answered (src, c.xid) then
          s.dup_calls <- s.dup_calls + 1
        else begin
          match Proc.of_number ~version:c.vers c.proc with
          | None -> s.rpc_errors <- s.rpc_errors + 1
          | Some proc -> (
              match timed s.nfs (decode_call ~version:c.vers ~proc) (msg, pos) with
              | exception (Xdr.Error _ | Nt_nfs.V2.Unsupported _ | Nt_nfs.V3.Unsupported _) ->
                  nfs_failed ()
              | (_ : Nt_nfs.Ops.call) ->
                  s.calls <- s.calls + 1;
                  Hashtbl.replace pending (src, c.xid)
                    { p_time = time; p_version = c.vers; p_proc = proc };
                  flush_expired time)
        end
    | Rpc.Reply r, pos -> (
        match Hashtbl.find_opt pending (dst, r.xid) with
        | None ->
            if Hashtbl.mem answered (dst, r.xid) then s.dup_replies <- s.dup_replies + 1
            else s.orphans <- s.orphans + 1
        | Some p ->
            Hashtbl.remove pending (dst, r.xid);
            Hashtbl.replace answered (dst, r.xid) time;
            (match r.status with
            | Rpc.Accepted Rpc.Success -> (
                match timed s.nfs (decode_result ~version:p.p_version ~proc:p.p_proc) (msg, pos) with
                | exception (Xdr.Error _ | Nt_nfs.V2.Unsupported _ | Nt_nfs.V3.Unsupported _) ->
                    nfs_failed ()
                | (_ : Nt_nfs.Ops.result) -> ())
            | Rpc.Accepted _ | Rpc.Denied _ -> ());
            s.replies <- s.replies + 1)
  in
  let handle ~time ~src ~dst msg =
    match handle ~time ~src ~dst msg with
    | () -> ()
    | exception (Xdr.Error _ | Invalid_argument _ | Failure _ | Not_found) ->
        s.rpc_errors <- s.rpc_errors + 1
  in
  let tcp = Tcp.create () in
  let rms : (Tcp.flow, Rm.reassembler) Hashtbl.t = Hashtbl.create 64 in
  let rm_for flow =
    match Hashtbl.find_opt rms flow with
    | Some rm -> rm
    | None ->
        let rm = Rm.create_reassembler () in
        Hashtbl.add rms flow rm;
        rm
  in
  let packet (p : Pcap.packet) =
    s.frames <- s.frames + 1;
    match timed s.frame Frame.decode p.data with
    | Error _ -> s.undecodable <- s.undecodable + 1
    | Ok _ when not (timed s.frame Frame.header_checksum_ok p.data) -> s.corrupt <- s.corrupt + 1
    | Ok f -> (
        match f.transport with
        | Frame.Udp { payload; _ } ->
            if String.length payload >= 16 then
              handle ~time:p.time ~src:f.src_ip ~dst:f.dst_ip payload
            else s.undecodable <- s.undecodable + 1
        | Frame.Tcp { src_port; dst_port; seq; syn; payload; fin = _ } ->
            let flow = { Tcp.src_ip = f.src_ip; src_port; dst_ip = f.dst_ip; dst_port } in
            List.iter
              (function
                | Tcp.Data bytes ->
                    let msgs = timed s.rm (Rm.push (rm_for flow)) bytes in
                    s.rm_msgs <- s.rm_msgs + List.length msgs;
                    List.iter (handle ~time:p.time ~src:f.src_ip ~dst:f.dst_ip) msgs
                | Tcp.Gap _ ->
                    s.gaps <- s.gaps + 1;
                    Hashtbl.replace rms flow (Rm.create_reassembler ()))
              (timed s.tcp (Tcp.push tcp flow ~seq ~syn) payload))
  in
  In_channel.with_open_bin path (fun ic ->
      let reader = Pcap.reader_of_channel ic in
      let rec loop () =
        match Pcap.read_next reader with
        | Some p ->
            packet p;
            loop ()
        | None -> ()
      in
      loop ());
  s

(* --- traced runs --- *)

(* One layer's self time, and the row and unit count it is printed with. *)
type part = { layer : string; row : string; units : int; self_ns : float }

type traced = {
  wall_ns : int;
  parts : part list;  (** disjoint; their self times and the residual sum to [wall_ns] *)
  metrics : (string * float * string) list;
}

let gc_rows (g0 : Gc.stat) (g1 : Gc.stat) =
  [
    ("gc.minor_collections", float_of_int (g1.minor_collections - g0.minor_collections), "count");
    ("gc.major_collections", float_of_int (g1.major_collections - g0.major_collections), "count");
    ( "gc.top_heap_mb",
      float_of_int (g1.top_heap_words * (Sys.word_size / 8)) /. 1048576.,
      "MB" );
  ]

let rows name ~unit ?(major = true) c n =
  [ (name ^ ".ns_per_" ^ unit, per c.c_ns n, "ns/" ^ unit);
    (name ^ ".words_per_" ^ unit, per c.c_words n, "words/" ^ unit) ]
  @ if major then [ (name ^ ".major_words_per_" ^ unit, per c.c_major n, "words/" ^ unit) ] else []

(* Every per-layer row the helper prints, in order, zero where the
   workload's path does not reach the layer. *)
let absent_rows =
  rows "pcap" ~unit:"pkt" zero 0 @ rows "frame" ~unit:"pkt" zero 0
  @ [ ("frame.failed", 0., "count") ]
  @ rows "tcp" ~unit:"seg" zero 0 @ [ ("tcp.gaps", 0., "count") ]
  @ rows "record_mark" ~unit:"msg" zero 0
  @ rows "rpc" ~unit:"msg" ~major:false zero 0 @ [ ("rpc.failed", 0., "count") ]
  @ rows "nfs" ~unit:"msg" zero 0 @ [ ("nfs.failed", 0., "count") ]
  @ rows "capture" ~unit:"pkt" zero 0
  @ [ ("capture.pair_ns_per_pkt", 0., "ns/pkt"); ("capture.pair_rate", 0., "ratio") ]
  @ rows "record_out" ~unit:"rec" ~major:false zero 0
  @ rows "tbin" ~unit:"rec" ~major:false zero 0 @ [ ("tbin.failed", 0., "count") ]
  @ rows "text" ~unit:"rec" ~major:false zero 0 @ [ ("text.failed", 0., "count") ]
  @ [ ("load.self_ns_per_rec", 0., "ns/rec"); ("load.words_per_rec", 0., "words/rec") ]
  @ rows "report" ~unit:"rec" zero 0
  @ List.map (fun p -> ("report.pass." ^ p ^ "_s", 0., "s"))
      [ "summary"; "hourly"; "io_log"; "names"; "runs" ]
  @ [ ("report.merge_s", 0., "s") ]
  @ [ ("gc.minor_collections", 0., "count"); ("gc.major_collections", 0., "count");
      ("gc.top_heap_mb", 0., "MB"); ("residual_share", 0., "share") ]

let fill measured =
  List.map
    (fun (name, v, unit) ->
      match List.find_opt (fun (n, _, _) -> String.equal n name) measured with
      | Some row -> row
      | None -> (name, v, unit))
    absent_rows

let settle () = Gc.compact ()

(* The nfstrace path (read_next, feed_packet, finish, the output writes),
   then the shadow pass over the same pcap. *)
let traced_trace cal e ~faults ~input ~out =
  settle ();
  let pcap = layer () and capture = layer () and record_out = layer () in
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  let obs = Obs.create () in
  let stats =
    Out_channel.with_open_bin out (fun oc ->
        let emit =
          timed record_out (fun r ->
              output_string oc (Record.to_line r);
              output_char oc '\n')
        in
        In_channel.with_open_bin input (fun ic ->
            let reader = Pcap.reader_of_channel ~obs ic in
            let cap = Capture.create ~obs ~emit () in
            let rec loop () =
              match timed pcap Pcap.read_next reader with
              | Some p ->
                  timed capture (fun (p : Pcap.packet) -> Capture.feed_packet cap ~time:p.time p.data) p;
                  loop ()
              | None -> ()
            in
            loop ();
            fst (timed capture Capture.finish cap)))
  in
  let wall_ns = now () - t0 in
  let g1 = Gc.quick_stat () in
  let stats = parse_stats (Capture.stats_to_string stats) in
  let v = check_trace e ~faults stats out in
  settle ();
  let s = shadow_capture input in
  let get k = Option.value ~default:0 (List.assoc_opt k stats) in
  List.iter
    (fun (k, shadow) -> if shadow <> get k then fail "shadow %s = %d but capture %s = %d" k shadow k (get k))
    [ ("frames", s.frames); ("undecodable", s.undecodable); ("corrupt", s.corrupt);
      ("rpc", s.rpc_messages); ("rpc_errors", s.rpc_errors); ("non_nfs", s.non_nfs); ("calls", s.calls);
      ("replies", s.replies); ("dup_calls", s.dup_calls); ("dup_replies", s.dup_replies);
      ("orphan_replies", s.orphans); ("tcp_gaps", s.gaps) ];
  let v = { v with problems = v.problems @ (verdict 0.).problems } in
  let pkts = pcap.calls - 1 and recs = record_out.calls in
  let c_pcap = cost cal pcap and c_out = cost cal record_out in
  let c_cap = cost cal ~inner:record_out.calls capture in
  let c_frame = cost cal s.frame and c_tcp = cost cal s.tcp and c_rm = cost cal s.rm in
  let c_rpc = cost cal s.rpc and c_nfs = cost cal s.nfs in
  let pair = List.fold_left minus c_cap [ c_out; c_frame; c_tcp; c_rm; c_rpc; c_nfs ] in
  let part layer row units c = { layer; row; units; self_ns = c.c_ns } in
  let parts =
    [ part "pcap" "pcap.ns_per_pkt" pkts c_pcap;
      part "frame" "frame.ns_per_pkt" s.frames c_frame;
      part "tcp" "tcp.ns_per_seg" s.tcp.calls c_tcp;
      part "record_mark" "record_mark.ns_per_msg" s.rm_msgs c_rm;
      part "rpc" "rpc.ns_per_msg" s.rpc.calls c_rpc;
      part "nfs" "nfs.ns_per_msg" s.nfs.calls c_nfs;
      part "capture.pair" "capture.pair_ns_per_pkt" pkts pair;
      part "record_out" "record_out.ns_per_rec" recs c_out ]
  in
  let metrics =
    rows "pcap" ~unit:"pkt" c_pcap pkts
    @ rows "frame" ~unit:"pkt" c_frame s.frames
    @ [ ("frame.failed", float_of_int (s.undecodable + s.corrupt), "count") ]
    @ rows "tcp" ~unit:"seg" c_tcp s.tcp.calls
    @ [ ("tcp.gaps", float_of_int s.gaps, "count") ]
    @ rows "record_mark" ~unit:"msg" c_rm s.rm_msgs
    @ rows "rpc" ~unit:"msg" ~major:false c_rpc s.rpc.calls
    @ [ ("rpc.failed", float_of_int s.rpc_failed, "count") ]
    @ rows "nfs" ~unit:"msg" c_nfs s.nfs.calls
    @ [ ("nfs.failed", float_of_int s.nfs_failed, "count") ]
    @ rows "capture" ~unit:"pkt" c_cap pkts
    @ [ ("capture.pair_ns_per_pkt", per pair.c_ns pkts, "ns/pkt");
        ("capture.pair_rate", per (float_of_int (get "replies")) (get "calls"), "ratio") ]
    @ rows "record_out" ~unit:"rec" ~major:false c_out recs
    @ gc_rows g0 g1
  in
  ( v,
    { wall_ns; parts; metrics } )

(* The nfsstats path (load_trace, then Report.run at the workload's jobs),
   then the shadow decode of the same file. *)
let traced_stats cal e ~tbin ~jobs ~input =
  settle ();
  let load = layer () and report = layer () in
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  let obs = Obs.create () in
  let records = timed load (fun path -> Pipeline.load_trace ~obs path) input in
  let texts = timed report (fun a -> Report.run ~obs ~jobs ~sections a) (Array.of_list records) in
  let wall_ns = now () - t0 in
  let g1 = Gc.quick_stat () in
  let n = List.length records in
  check_report e (String.concat "" (List.map (fun (_, t) -> t ^ "\n") texts));
  expect_eq "records loaded = records in the file" e.records n;
  let v = verdict (float_of_int n /. float_of_int (max 1 e.records)) in
  let snap = Obs.snapshot obs in
  settle ();
  (* Shadow: the decoder alone, keeping the records live as load does. *)
  let dec = layer () in
  let kept = ref [] and failed = ref 0 in
  In_channel.with_open_bin input (fun ic ->
      if tbin then begin
        let d = Nt_tbin.Decoder.create () in
        let buf = Bytes.create 65536 in
        let rec drain () =
          match timed dec Nt_tbin.Decoder.pull d with
          | Some r ->
              kept := r :: !kept;
              drain ()
          | None -> ()
        in
        let rec loop () =
          let got = Stdlib.input ic buf 0 (Bytes.length buf) in
          if got > 0 then begin
            let chunk = Bytes.sub_string buf 0 got in
            timed dec (Nt_tbin.Decoder.feed d) chunk;
            drain ();
            loop ()
          end
        in
        loop ();
        Nt_tbin.Decoder.finish d;
        drain ();
        failed := Nt_tbin.failures (Nt_tbin.Decoder.stats d)
      end
      else
        let rec loop () =
          match In_channel.input_line ic with
          | Some line ->
              (match timed dec Record.of_line line with
              | Ok r -> kept := r :: !kept
              | Error _ -> incr failed);
              loop ()
          | None -> ()
        in
        loop ());
  let decoded = List.length !kept in
  kept := [];
  if decoded <> n then fail "shadow decoded %d records, load_trace %d" decoded n;
  let v = { v with problems = v.problems @ (verdict 0.).problems } in
  let c_load = cost cal load and c_dec = cost cal dec and c_rep = cost cal report in
  let load_self = minus c_load c_dec in
  let fmt = if tbin then "tbin" else "text" in
  let span name =
    match Obs.get_span snap name with Some sp -> sp.total_s | None -> 0.
  in
  let metrics =
    rows fmt ~unit:"rec" ~major:false c_dec n
    @ [ (fmt ^ ".failed", float_of_int !failed, "count");
        ("load.self_ns_per_rec", per load_self.c_ns n, "ns/rec");
        ("load.words_per_rec", per load_self.c_words n, "words/rec") ]
    @ rows "report" ~unit:"rec" c_rep n
    @ List.map
        (fun p -> ("report.pass." ^ p ^ "_s", span ("par.pass." ^ p), "s"))
        [ "summary"; "hourly"; "io_log"; "names"; "runs" ]
    @ [ ("report.merge_s", span "par.merge", "s") ]
    @ gc_rows g0 g1
  in
  ( v,
    { wall_ns;
      parts =
        [ { layer = fmt; row = fmt ^ ".ns_per_rec"; units = n; self_ns = c_dec.c_ns };
          { layer = "load.self"; row = "load.self_ns_per_rec"; units = n; self_ns = load_self.c_ns };
          { layer = "report"; row = "report.ns_per_rec"; units = n; self_ns = c_rep.c_ns } ];
      metrics } )

(* --- reference kernel --- *)

(* Fixed work on the standard library alone (hashing, small strings,
   sorting, minor and major GC), so no change to the toolchain moves it.
   Timed next to every measurement, it tracks the speed of the host, which
   on a shared machine drifts by tens of percent within minutes; run.py
   divides that drift out of the end-to-end times. *)
let reference () =
  Gc.compact ();
  let t0 = Unix.gettimeofday () in
  let h = Hashtbl.create 1024 in
  for i = 0 to 400_000 do
    Hashtbl.replace h (i * 7919 mod 200_003) (string_of_int i)
  done;
  let a = Array.init 400_000 (fun i -> i * 104_729 mod 1_000_003) in
  Array.sort compare a;
  ignore (Sys.opaque_identity (Hashtbl.length h + a.(0)) : int);
  Unix.gettimeofday () -. t0

(* --- commands --- *)

let find_workload name =
  match List.find_opt (fun w -> String.equal w.name name) workloads with
  | Some w -> w
  | None ->
      Printf.eprintf "bench: unknown workload %s\n" name;
      exit 2

let load_expect dir : expect = In_channel.with_open_bin (Filename.concat dir "expect.bin") Marshal.from_channel

let verdict_fields v =
  [ ("ok", string_of_bool (v.problems = [])); ("delivered", json_float v.delivered);
    ("problems", json_list (List.map json_string v.problems)) ]

(* Set-up time is the median of this many generations, in memory; the
   file is written once, untimed. *)
let setup_repeat = 7

let setup ~workload ~seed ~scale ~dir =
  let w = find_workload workload in
  let g = { w; seed; limit = max 1 (int_of_float (Float.round (float_of_int w.records *. scale))) } in
  let buf = Buffer.create (1 lsl 20) in
  let times = ref [] and pcap = ref None in
  for _ = 1 to setup_repeat do
    let t0 = Unix.gettimeofday () in
    pcap := generate g buf;
    times := (Unix.gettimeofday () -. t0) :: !times
  done;
  let path = Filename.concat dir (input_name w) in
  Out_channel.with_open_bin path (fun oc -> Buffer.output_buffer oc buf);
  let e = expect_of g !pcap in
  Out_channel.with_open_bin (Filename.concat dir "expect.bin") (fun oc -> Marshal.to_channel oc e []);
  print_endline
    (json_obj
       [ ("setup_s", json_list (List.rev_map json_float !times));
         ("records", string_of_int e.records);
         ("users", string_of_int w.users);
         ("input_bytes", string_of_int (Buffer.length buf));
         ("input_md5", json_string (Digest.to_hex (Digest.file path)));
         ("ocaml", json_string Sys.ocaml_version);
         ("argv", json_list (List.map json_string (argv w))) ])

let check ~dir =
  let e = load_expect dir in
  let w = find_workload e.workload in
  let file = Filename.concat dir in
  let v =
    match w.kind with
    | Trace { faults } ->
        let err = read_file (file "stderr") in
        let line =
          List.find_opt (String.starts_with ~prefix:"nfstrace: frames=") (String.split_on_char '\n' err)
        in
        (match line with
        | Some l -> check_trace e ~faults (parse_stats l) (file "out.trace")
        | None ->
            fail "no stats line on stderr";
            verdict 0.)
    | Stats _ -> check_stats e ~out:(file "stdout") ~err:(file "stderr")
  in
  print_endline (json_obj (verdict_fields v @ [ ("ref_s", json_float (reference ())) ]))

let traced ~dir =
  let e = load_expect dir in
  let w = find_workload e.workload in
  let input = Filename.concat dir (input_name w) in
  let cal = calibrate () in
  let v, t =
    match w.kind with
    | Trace { faults } -> traced_trace cal e ~faults ~input ~out:(Filename.concat dir "traced.trace")
    | Stats { tbin; jobs } -> traced_stats cal e ~tbin ~jobs ~input
  in
  let wall = float_of_int t.wall_ns in
  let residual = wall -. List.fold_left (fun acc p -> acc +. p.self_ns) 0. t.parts in
  let metrics = fill (t.metrics @ [ ("residual_share", residual /. wall, "share") ]) in
  let s ns = json_float (ns /. 1e9) in
  print_endline
    (json_obj
       (verdict_fields v
       @ [ ("wall_s", s wall); ("residual_s", s residual);
           ( "layers",
             json_list
               (List.map
                  (fun p ->
                    json_obj
                      [ ("layer", json_string p.layer); ("row", json_string p.row);
                        ("units", string_of_int p.units); ("self_s", s p.self_ns) ])
                  t.parts) );
           ( "calibration",
             json_obj
               [ ("self_ns", json_float cal.self_ns); ("nested_ns", json_float cal.nested_ns);
                 ("self_words", json_float cal.self_words);
                 ("nested_words", json_float cal.nested_words) ] );
           ( "metrics",
             json_obj
               (List.map
                  (fun (name, v, unit) ->
                    (name, json_obj [ ("value", json_float v); ("unit", json_string unit) ]))
                  metrics) ) ]))

let () =
  let workload = ref "" and seed = ref 1 and scale = ref 1. and dir = ref "." in
  let cmd = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to generate");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--scale", Arg.Set_float scale, "X multiply the workload's record count");
      ("--dir", Arg.Set_string dir, "DIR where inputs, outputs and expectations live") ]
    (fun a -> cmd := a)
    "bench.exe (setup|check|traced|ref) [options]";
  match !cmd with
  | "setup" -> setup ~workload:!workload ~seed:!seed ~scale:!scale ~dir:!dir
  | "check" -> check ~dir:!dir
  | "traced" -> traced ~dir:!dir
  | "ref" -> print_endline (json_obj [ ("ref_s", json_float (reference ())) ])
  | c ->
      Printf.eprintf "bench: unknown command %S\n" c;
      exit 2
