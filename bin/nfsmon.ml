(* nfsmon: live streaming NFS monitor. Tails a growing trace or pcap
   file (or runs a simulated workload as a live source), maintains a
   ring of bounded time windows, and emits periodic top-N reports while
   serving its own metrics over HTTP.

   Examples:
     nfsmon trace:campus.trace
     nfsmon pcap:/var/tmp/capture.pcap --listen 127.0.0.1:9200
     nfsmon sim:campus --sim-stop 3600 --speedup 60 --json
     nfsmon trace:live.trace --checkpoint mon.ckpt --checkpoint-every 10 *)

open Cmdliner
module Obs = Nt_obs.Obs
module Mon = Nt_mon.Service

let parse_source obs s ~sim_start ~sim_stop ~speedup ~slice =
  let live workload =
    Ok
      (Nt_core.Live_feed.create ~obs ?speedup ~slice_s:slice ~workload ~start:sim_start
         ~stop:sim_stop ())
  in
  if String.starts_with ~prefix:"sim:" s then
    match String.sub s 4 (String.length s - 4) with
    | "campus" -> live Nt_core.Live_feed.Campus
    | "eecs" -> live Nt_core.Live_feed.Eecs
    | w -> Error (Printf.sprintf "unknown workload %S (campus or eecs)" w)
  else
    match Nt_core.Pipeline.source s with
    | _, "-" -> Error "stdin cannot be tailed; name a file"
    | Text, path -> Ok (Nt_mon.Feed.trace_tail ~obs path)
    | Tbin, path -> Ok (Nt_mon.Feed.tbin_tail ~obs path)
    | Pcap, path -> Ok (Nt_mon.Feed.pcap_tail ~obs path)

let parse_listen s =
  match String.rindex_opt s ':' with
  | Some i -> (
      let addr = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | Some p when p >= 0 && p < 65536 -> Ok ((if addr = "" then "127.0.0.1" else addr), p)
      | _ -> Error (Printf.sprintf "bad listen port %S" port))
  | None -> (
      match int_of_string_opt s with
      | Some p when p >= 0 && p < 65536 -> Ok ("127.0.0.1", p)
      | _ -> Error (Printf.sprintf "bad listen spec %S (ADDR:PORT or PORT)" s))

let run source window windows topn report_every json checkpoint checkpoint_every listen
    table_cap queue_cap max_records idle_exit sim_start sim_stop speedup slice trace_out =
  let obs = Obs.create () in
  let timeline =
    match trace_out with
    | None -> None
    | Some _ ->
        let tl = Nt_obs.Timeline.create () in
        Nt_obs.Timeline.attach tl obs;
        Some tl
  in
  match parse_source obs source ~sim_start ~sim_stop ~speedup ~slice with
  | Error e ->
      Printf.eprintf "nfsmon: %s\n%!" e;
      2
  | Ok feed -> (
      (* The exporter is wired before the service exists, so /series
         reads the sampler through this cell once [Mon.create] fills
         it; until then the endpoint answers an empty document. *)
      let service_cell = ref None in
      let series () =
        match !service_cell with
        | Some svc -> Nt_obs.Sampler.series_json (Mon.sampler svc)
        | None -> "{\"schema\": \"" ^ Nt_formats.Formats.obs_series ^ "\", \"samples\": []}"
      in
      let exporter =
        match listen with
        | None -> None
        | Some spec -> (
            match parse_listen spec with
            | Error e ->
                Printf.eprintf "nfsmon: %s\n%!" e;
                exit 2
            | Ok (addr, port) -> (
                match Nt_obs.Exporter.create ~addr ~port ~series obs with
                | Ok ex ->
                    Printf.eprintf "nfsmon: metrics on http://%s:%d/metrics\n%!" addr
                      (Nt_obs.Exporter.port ex);
                    Some ex
                | Error e ->
                    Printf.eprintf "nfsmon: listen failed: %s\n%!" e;
                    exit 2))
      in
      let caps =
        {
          Nt_mon.Win.client_cap = table_cap;
          uid_cap = table_cap;
          fs_cap = max 16 (table_cap / 4);
          proc_cap = Nt_mon.Win.default_caps.Nt_mon.Win.proc_cap;
        }
      in
      let ring_config =
        {
          Nt_mon.Ring.window_s = window;
          windows;
          caps;
          summary_cap =
            {
              caps with
              Nt_mon.Win.client_cap = 4 * caps.Nt_mon.Win.client_cap;
              uid_cap = 4 * caps.Nt_mon.Win.uid_cap;
            };
        }
      in
      let config =
        {
          Mon.default_config with
          Mon.ring = ring_config;
          topn;
          report_every;
          json;
          checkpoint_path = checkpoint;
          checkpoint_every_s = checkpoint_every;
          queue_cap;
          max_records;
          idle_exit;
        }
      in
      let tick () = match exporter with Some ex -> Nt_obs.Exporter.poll ex | None -> () in
      let service = Mon.create ~obs ~tick config feed in
      service_cell := Some service;
      if Mon.restored service then Printf.eprintf "nfsmon: restored from checkpoint\n%!";
      let stop _ = Mon.request_stop service in
      Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
      Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
      Obs.span_open obs "mon.run";
      Mon.run service;
      Obs.span_close obs "mon.run";
      (match exporter with Some ex -> Nt_obs.Exporter.close ex | None -> ());
      (match (trace_out, timeline) with
      | Some path, Some tl -> Obs_cli.write_timeline ~sampler:(Mon.sampler service) ~path tl
      | _ -> ());
      match Mon.conservation service with
      | Ok () -> 0
      | Error e ->
          Printf.eprintf "nfsmon: conservation violated: %s\n%!" e;
          1)

let source =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"SOURCE"
        ~doc:
          "Record source: $(b,trace:PATH) (tail a text trace), $(b,pcap:PATH) (tail a pcap \
           capture), $(b,tbin:PATH) (tail an nttb/1 binary trace), or \
           $(b,sim:campus)/$(b,sim:eecs) (live simulated workload). A bare path is sniffed \
           by content when nfsmon starts, as nfsstats does: nttb/1 magic means tbin, a pcap \
           magic means pcap, anything else (a missing file too) text.")

let window =
  Arg.(value & opt float 10. & info [ "window" ] ~docv:"SECONDS" ~doc:"Window length.")

let windows =
  Arg.(value & opt int 30 & info [ "windows" ] ~docv:"N" ~doc:"Live windows retained.")

let topn = Arg.(value & opt int 10 & info [ "top" ] ~docv:"N" ~doc:"Rows per report table.")

let report_every =
  Arg.(
    value & opt int 1
    & info [ "report-every" ] ~docv:"N" ~doc:"Emit a report every N window rotations.")

let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit JSON report documents.")

let checkpoint =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"PATH"
        ~doc:"Checkpoint state here (atomically) and restore from it on start.")

let checkpoint_every =
  Arg.(
    value & opt float 30.
    & info [ "checkpoint-every" ] ~docv:"SECONDS" ~doc:"Checkpoint cadence (wall clock).")

let listen =
  Arg.(
    value
    & opt (some string) None
    & info [ "listen" ] ~docv:"ADDR:PORT"
        ~doc:"Serve /metrics (Prometheus) and /json on this address; port 0 = ephemeral.")

let table_cap =
  Arg.(
    value & opt int 256
    & info [ "table-cap" ] ~docv:"N"
        ~doc:"Per-window client/uid table cap; new keys past it fold into (other).")

let queue_cap =
  Arg.(
    value & opt int 65536
    & info [ "queue-cap" ] ~docv:"N"
        ~doc:"Ingest queue bound; under overload the oldest queued records are shed (counted).")

let max_records =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-records" ] ~docv:"N" ~doc:"Stop after observing N records (soak runs).")

let idle_exit =
  Arg.(
    value
    & opt (some int) None
    & info [ "idle-exit" ] ~docv:"N"
        ~doc:"Exit after N consecutive idle rounds instead of tailing forever.")

let sim_start =
  Arg.(value & opt float 0. & info [ "sim-start" ] ~docv:"T" ~doc:"Simulated interval start.")

let sim_stop =
  Arg.(value & opt float 600. & info [ "sim-stop" ] ~docv:"T" ~doc:"Simulated interval end.")

let speedup =
  Arg.(
    value
    & opt (some float) None
    & info [ "speedup" ] ~docv:"K"
        ~doc:"Pace the simulated source at K simulated seconds per real second (default: \
              unpaced).")

let slice =
  Arg.(
    value & opt float 1.0
    & info [ "slice" ] ~docv:"SECONDS" ~doc:"Simulated seconds advanced per feed pull.")

let trace_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event timeline of the run to $(docv) on exit: service spans \
           plus heap/RSS counter tracks from the resource sampler.")

let cmd =
  Cmd.v
    (Cmd.info "nfsmon" ~doc:"Continuously monitor a live NFS record source")
    Term.(
      const run $ source $ window $ windows $ topn $ report_every $ json $ checkpoint
      $ checkpoint_every $ listen $ table_cap $ queue_cap $ max_records $ idle_exit $ sim_start
      $ sim_stop $ speedup $ slice $ trace_out)

let () = exit (Cmd.eval' cmd)
