module Engine = Nt_sim.Engine
module Server = Nt_sim.Server
module Record_sorter = Nt_sim.Record_sorter
module Packet_pipe = Nt_sim.Packet_pipe
module Email = Nt_workload.Email
module Research = Nt_workload.Research
module Ip_addr = Nt_net.Ip_addr
module Obs = Nt_obs.Obs

type run_stats = {
  records : int;
  sessions : int;
  deliveries : int;
  compiles : int;
  server_calls : int;
}

type system = Campus | Eecs

type wiring = {
  engine : Engine.t;
  sorter : Record_sorter.t;
  counts : unit -> int * int * int * int;
}

let wire ~obs ?(email = Email.default_config) ?(research = Research.default_config) system
    ~start ~stop sink =
  let engine = Engine.create ~obs ~start:(start -. 1.) () in
  let sorter = Record_sorter.create ~obs sink in
  let push = Record_sorter.push sorter in
  let counts =
    match system with
    | Campus ->
        let server = Server.create ~fsid:2 ~ip:(Ip_addr.v 10 1 1 2) (* "home02" *) () in
        let wl = Email.setup email ~engine ~server ~sink:push in
        Email.schedule wl ~start ~stop;
        fun () ->
          (Email.sessions_started wl, Email.deliveries_made wl, 0, Server.calls_handled server)
    | Eecs ->
        let server = Server.create ~fsid:3 ~ip:(Ip_addr.v 10 2 1 2) () in
        let wl = Research.setup research ~engine ~server ~sink:push in
        Research.schedule wl ~start ~stop;
        fun () -> (0, 0, Research.compiles_run wl, Server.calls_handled server)
  in
  { engine; sorter; counts }

(* run_stats is DERIVED from the registry: every field is written to an
   obs counter first and read back out, so the struct can never
   disagree with what a --metrics snapshot reports. Deltas against the
   pre-run counter values keep per-run stats correct when one registry
   hosts several runs. *)
let simulate ?obs ?email ?research system ~start ~stop ~sink =
  let obs = match obs with Some o -> o | None -> Obs.create () in
  let counter help name = Obs.counter obs ~help name in
  let c_records = counter "trace records emitted to the sink" "pipeline.records" in
  let c_sessions = counter "interactive sessions started" "workload.sessions" in
  let c_deliveries = counter "messages delivered" "workload.deliveries" in
  let c_compiles = counter "compile jobs run" "workload.compiles" in
  let c_server = counter "NFS calls the simulated server handled" "server.calls" in
  let r0 = Obs.value c_records in
  let w =
    wire ~obs ?email ?research system ~start ~stop (fun r ->
        Obs.inc c_records;
        sink r)
  in
  let span = match system with Campus -> "simulate.campus" | Eecs -> "simulate.eecs" in
  Obs.with_span obs span (fun () ->
      Engine.run_until w.engine stop;
      Record_sorter.flush w.sorter);
  let sessions, deliveries, compiles, server_calls = w.counts () in
  let take c n =
    let before = Obs.value c in
    Obs.add c n;
    Obs.value c - before
  in
  {
    records = Obs.value c_records - r0;
    sessions = take c_sessions sessions;
    deliveries = take c_deliveries deliveries;
    compiles = take c_compiles compiles;
    server_calls = take c_server server_calls;
  }

let simulate_campus ?obs ?config ~start ~stop ~sink () =
  simulate ?obs ?email:config Campus ~start ~stop ~sink

let simulate_eecs ?obs ?config ~start ~stop ~sink () =
  simulate ?obs ?research:config Eecs ~start ~stop ~sink

type pcap_stats = {
  run : run_stats;
  packets_written : int;
  packets_dropped : int;
  snapshot : Obs.snapshot;
}

(* packets_written/dropped are likewise read back from the registry
   counters the pipe and its fault injector maintain. *)
let to_pcap ~obs ~fault ~seed ~transport ~writer ~simulate =
  let obs = match obs with Some o -> o | None -> Obs.create () in
  let c_written = Obs.counter obs "pipe.packets_written" in
  let c_dropped = Obs.counter obs ~labels:[ ("kind", "dropped") ] "fault.events" in
  let w0 = Obs.value c_written and d0 = Obs.value c_dropped in
  let pipe = Packet_pipe.create ~obs ?fault ?seed ~transport ~writer () in
  let run =
    Obs.with_span obs "emit-pcap" (fun () ->
        let run = simulate ~obs ~sink:(Packet_pipe.push pipe) in
        Packet_pipe.finish pipe;
        run)
  in
  {
    run;
    packets_written = Obs.value c_written - w0;
    packets_dropped = Obs.value c_dropped - d0;
    snapshot = Obs.snapshot obs;
  }

let campus_to_pcap ?obs ?config ?fault ?seed ~start ~stop ~writer () =
  to_pcap ~obs ~fault ~seed ~transport:Packet_pipe.Tcp_transport ~writer
    ~simulate:(fun ~obs ~sink -> simulate_campus ~obs ?config ~start ~stop ~sink ())

let eecs_to_pcap ?obs ?config ?fault ?seed ~start ~stop ~writer () =
  to_pcap ~obs ~fault ~seed ~transport:Packet_pipe.Udp_transport ~writer
    ~simulate:(fun ~obs ~sink -> simulate_eecs ~obs ?config ~start ~stop ~sink ())

let capture_pcap ?obs ?salvage pcap_bytes =
  let obs = match obs with Some o -> o | None -> Obs.create () in
  let reader = Nt_net.Pcap.reader_of_string ~obs ?salvage pcap_bytes in
  let capture = Nt_trace.Capture.create ~obs () in
  Obs.with_span obs "capture.decode" (fun () ->
      Nt_trace.Capture.feed_pcap capture reader;
      Nt_trace.Capture.finish capture)

(* nfstrace's decode runs in two stages (DESIGN.md §17). The calling
   domain reads the pcap and pairs records into batches; the render
   stage writes them in FIFO order as text lines and tbin frames, on a
   second domain when there is a second CPU, else inline. Batch [i]
   lives in slot [i mod slots]; at most [in_flight] wait between the
   stages, so few records outlive a minor collection. *)
let batch_len = 64
let in_flight = 2
let slots = in_flight + 1

type batch = { recs : Nt_trace.Record.t array; mutable len : int }

(* Written over each rendered record, so a minor collection promotes
   only the records in flight. *)
let blank =
  let ip = Ip_addr.v 0 0 0 0 in
  {
    Nt_trace.Record.time = 0.;
    reply_time = None;
    client = ip;
    server = ip;
    version = 3;
    xid = 0;
    uid = 0;
    gid = 0;
    call = Nt_nfs.Ops.Null;
    result = None;
  }

type handoff = {
  free : Semaphore.Counting.t;  (* batches the capture may still hand over *)
  full : Semaphore.Counting.t;  (* batches handed over and not yet taken *)
  ring : batch array;
  failed : exn option Atomic.t;  (* what stopped the render stage *)
}

(* The render domain, until an empty batch ends the stream. It times
   each batch into [tbuf] and touches no registry. *)
let render_stage h render tbuf =
  let rec loop i =
    Semaphore.Counting.acquire h.full;
    let b = h.ring.(i mod slots) in
    if b.len > 0 then begin
      let t0 = Unix.gettimeofday () in
      render b;
      Nt_obs.Timeline.buf_add tbuf ~name:"trace.render" ~t0 ~t1:(Unix.gettimeofday ());
      Semaphore.Counting.release h.free;
      loop (i + 1)
    end
  in
  try loop 0
  with e ->
    Atomic.set h.failed (Some e);
    Semaphore.Counting.release h.free

(* The capture's side: hand a batch over, first waiting while
   [in_flight] are; raise what stopped the render stage. *)
let hand_over obs h =
  if not (Semaphore.Counting.try_acquire h.free) then
    Obs.with_span obs "trace.blocked" (fun () -> Semaphore.Counting.acquire h.free);
  match Atomic.get h.failed with
  | Some e ->
      Semaphore.Counting.release h.free;
      raise e
  | None -> Semaphore.Counting.release h.full

let trace_pcap ?obs ?timeline ?(emit = ignore) ?tbin reader oc =
  let obs = match obs with Some o -> o | None -> Obs.create () in
  let tbin = Option.map (fun toc -> Nt_tbin.Writer.create (output_string toc)) tbin in
  let busy = ref 0. in
  let render b =
    let t0 = Unix.gettimeofday () and n = b.len in
    b.len <- 0;
    for i = 0 to n - 1 do
      Nt_trace.Record.output_line oc b.recs.(i);
      Option.iter (fun w -> Nt_tbin.Writer.add w b.recs.(i)) tbin;
      b.recs.(i) <- blank
    done;
    busy := !busy +. (Unix.gettimeofday () -. t0)
  in
  let h =
    {
      free = Semaphore.Counting.make in_flight;
      full = Semaphore.Counting.make 0;
      ring = Array.init slots (fun _ -> { recs = Array.make batch_len blank; len = 0 });
      failed = Atomic.make None;
    }
  in
  let tbuf = Nt_obs.Timeline.buf () in
  let domain =
    if Domain.recommended_domain_count () = 1 then None
    else try Some (Domain.spawn (fun () -> render_stage h render tbuf)) with Failure _ -> None
  in
  let handed = ref 0 in
  let current () = h.ring.(!handed mod slots) in
  let hand () =
    match domain with
    | Some _ ->
        hand_over obs h;
        incr handed
    | None -> render (current ())
  in
  let add r =
    let b = current () in
    b.recs.(b.len) <- r;
    b.len <- b.len + 1;
    if b.len = batch_len then hand ();
    emit r
  in
  let capture = Nt_trace.Capture.create ~obs ~emit:add () in
  (* Whatever stopped the capture, the records it decoded are written
     and an empty batch ends the render stage, unless writing failed. *)
  let stop () =
    (try
       if Atomic.get h.failed = None then begin
         if (current ()).len > 0 then hand ();
         hand ()
       end
     with _ -> ());
    Option.iter Domain.join domain;
    Option.iter Nt_tbin.Writer.close tbin;
    Obs.span_record obs "trace.render" ~seconds:!busy;
    Option.iter (fun tl -> Nt_obs.Timeline.absorb tl tbuf) timeline;
    Option.iter raise (Atomic.get h.failed)
  in
  Obs.with_span obs "capture.decode" (fun () ->
      match
        Nt_trace.Capture.feed_pcap capture reader;
        fst (Nt_trace.Capture.finish capture)
      with
      | stats ->
          stop ();
          (stats, None)
      | exception Nt_net.Pcap.Bad_format msg ->
          stop ();
          (Nt_trace.Capture.stats capture, Some msg)
      | exception e ->
          stop ();
          raise e)

(* --- degraded-vs-clean differential harness --- *)

module Fault = Nt_sim.Fault

type degraded_run = {
  simulated : int;
  clean : Nt_trace.Capture.stats;
  degraded : Nt_trace.Capture.stats;
  faults : Fault.counts;
  clean_records : Nt_trace.Record.t list;
  degraded_records : Nt_trace.Record.t list;
}

let run_degraded ?(seed = 2003L) ?(mangle_flips = 0) ~transport ~plan records =
  let through plan =
    let buf = Buffer.create (1 lsl 20) in
    let writer = Nt_net.Pcap.writer_to_buffer buf in
    let pipe = Packet_pipe.create ~fault:plan ~seed ~transport ~writer () in
    List.iter (Packet_pipe.push pipe) records;
    Packet_pipe.finish pipe;
    (Buffer.contents buf, Packet_pipe.faults pipe)
  in
  let clean_pcap, _ = through Fault.none in
  let degraded_pcap, faults = through plan in
  let degraded_pcap, _ =
    if mangle_flips > 0 then Fault.mangle_pcap ~seed ~flips:mangle_flips degraded_pcap
    else (degraded_pcap, 0)
  in
  let clean, clean_records = capture_pcap clean_pcap in
  let degraded, degraded_records = capture_pcap ~salvage:true degraded_pcap in
  { simulated = List.length records; clean; degraded; faults; clean_records; degraded_records }

let collect_records simulate =
  let acc = ref [] in
  let stats = simulate ~sink:(fun r -> acc := r :: !acc) in
  (stats, List.rev !acc)

(* --- lint hooks: the linter as a differential oracle --- *)

let lint_records ?obs ?(config = Nt_lint.Engine.default_config) ?stats records =
  Nt_lint.Engine.run ?obs ?stats config (List.to_seq records)

type lint_oracle = { clean_lint : Nt_lint.Engine.t; degraded_lint : Nt_lint.Engine.t }

let lint_degraded ?config (d : degraded_run) =
  {
    clean_lint = lint_records ?config ~stats:d.clean d.clean_records;
    degraded_lint = lint_records ?config ~stats:d.degraded d.degraded_records;
  }

let campus_degraded ?config ?seed ?mangle_flips ~plan ~start ~stop () =
  let _, records =
    collect_records (fun ~sink -> simulate_campus ?config ~start ~stop ~sink ())
  in
  run_degraded ?seed ?mangle_flips ~transport:Packet_pipe.Tcp_transport ~plan records

let eecs_degraded ?config ?seed ?mangle_flips ~plan ~start ~stop () =
  let _, records =
    collect_records (fun ~sink -> simulate_eecs ?config ~start ~stop ~sink ())
  in
  run_degraded ?seed ?mangle_flips ~transport:Packet_pipe.Udp_transport ~plan records

(* --- trace sources --- *)

type format = Text | Tbin | Pcap

let source spec =
  let prefixed = List.find_opt (fun (p, _) -> String.starts_with ~prefix:p spec) in
  match prefixed [ ("trace:", Text); ("tbin:", Tbin); ("pcap:", Pcap) ] with
  | Some (p, format) -> (format, String.sub spec (String.length p) (String.length spec - String.length p))
  | None when String.equal spec "-" -> (Text, spec)
  | None ->
      (* a file too short for either magic (or unreadable) is text *)
      let read ic = In_channel.really_input_string ic (String.length Nt_tbin.magic) in
      let head = try In_channel.with_open_bin spec read with Sys_error _ -> None in
      let head = Option.value head ~default:"" in
      if String.starts_with ~prefix:Nt_tbin.magic head then (Tbin, spec)
      else if Nt_net.Pcap.has_magic head then (Pcap, spec)
      else (Text, spec)

type source_stats = {
  rejected : int;
  tbin : Nt_tbin.stats option;
  capture : Nt_trace.Capture.stats option;
}

let no_stats = { rejected = 0; tbin = None; capture = None }

let sum_stats a b =
  {
    rejected = a.rejected + b.rejected;
    tbin =
      (match (a.tbin, b.tbin) with
      | Some x, Some y -> Some (Nt_tbin.sum x y)
      | x, None | None, x -> x);
    (* a pcap is one range: at most one side holds capture stats *)
    capture = (match a.capture with Some _ -> a.capture | None -> b.capture);
  }

(* What range [i] of [ranges] read: its stats, the offset it started at
   and the one it halted in front of (-1: none). Each reader opens its
   own channel, so ranges can run on any domain. *)
type range = { src : source_stats; first : int; stop : int }

let read_range ~obs format path ~size ~ranges i f =
  let lo = size * i / ranges in
  let hi = if i = ranges - 1 then max_int else size * (i + 1) / ranges in
  let read ic =
    match format with
    | Text ->
        let r = Nt_trace.Record.iter_range ic ~lo ~hi f in
        { src = { no_stats with rejected = r.rejected }; first = r.first; stop = r.stop }
    | Tbin ->
        let r = Nt_tbin.iter_range ic ~lo ~hi f in
        { src = { no_stats with tbin = Some r.stats }; first = r.first; stop = r.stop }
    | Pcap ->
        (* A pcap is one range, read on the calling domain, so its
           counters may land on [obs]; the stats are read back from them,
           so a disabled [obs] gives way to a private registry. Salvage
           as nfsmon's pcap tail does. *)
        let obs = if Obs.enabled obs then obs else Obs.create () in
        let reader = Nt_net.Pcap.reader_of_channel ~obs ~salvage:true ic in
        let capture = Nt_trace.Capture.create ~obs ~emit:f () in
        let stats =
          Obs.with_span obs "capture.decode" (fun () ->
              Nt_trace.Capture.feed_pcap capture reader;
              fst (Nt_trace.Capture.finish capture))
        in
        { src = { no_stats with capture = Some stats }; first = 0; stop = -1 }
  in
  if String.equal path "-" then read stdin else In_channel.with_open_bin path read

(* The ranges read the whole input exactly once when each one halted
   where the next one started. *)
let stitched parts =
  let rec from i =
    i + 1 >= Array.length parts || (parts.(i).stop = parts.(i + 1).first && from (i + 1))
  in
  from 0

let summed obs parts =
  let src = Array.fold_left (fun acc p -> sum_stats acc p.src) no_stats parts in
  Option.iter (Nt_tbin.add_stats obs) src.tbin;
  src

let iter_trace ?(obs = Obs.null) spec f =
  let format, path = source spec in
  summed obs [| read_range ~obs format path ~size:0 ~ranges:1 0 f |]

let analyze_trace ?(obs = Obs.null) ?timeline ?(jobs = 1) ?(tap = ignore) ~sections spec =
  let format, path = source spec in
  (* stdin and pipes can only be read in order: one range, as is a
     file too small to cut and a pcap, whose capture state is per flow *)
  let size =
    match Unix.stat path with
    | { Unix.st_kind = S_REG; st_size; _ } when not (String.equal path "-" || format = Pcap) ->
        st_size
    | _ | (exception Unix.Unix_error _) -> 0
  in
  let ranges = max 1 (min (Nt_par.Report.range_count jobs) size) in
  let produce ~ranges i push =
    let f = if i = 0 then fun r -> tap r; push r else push in
    read_range ~obs format path ~size ~ranges i f
  in
  let texts, n, parts = Nt_par.Report.run_ranges ~obs ?timeline ~stitched ~ranges ~sections produce in
  (texts, n, summed obs parts)

let skipped_notes ~tool src =
  let note n what = if n > 0 then [ Printf.sprintf "%s: %d %s" tool n what ] else [] in
  note src.rejected "malformed lines skipped"
  @
  (match src.tbin with
  | Some st ->
      note (Nt_tbin.failures st)
        (Printf.sprintf "damaged tbin frames skipped (%d bytes)" st.Nt_tbin.skipped_bytes)
  | None -> [])
  @
  match src.capture with
  | Some st -> [ Printf.sprintf "%s: %s" tool (Nt_trace.Capture.stats_to_string st) ]
  | None -> []

let load_trace ?obs ?rejected spec =
  let acc = ref [] in
  let src = iter_trace ?obs spec (fun r -> acc := r :: !acc) in
  Option.iter (fun n -> n := !n + src.rejected) rejected;
  List.rev !acc

let analyze_stream ?obs ?timeline ~sections produce =
  Nt_par.Report.run_stream ?obs ?timeline ~sections produce
