(* nfswlgen: generate a synthetic CAMPUS or EECS workload as either an
   nfsdump-style text trace or a pcap capture.

   Examples:
     nfswlgen --system campus --hours 2 -o campus.trace
     nfswlgen --system eecs --users 10 --format pcap -o eecs.pcap *)

open Cmdliner

let run system users start_hour hours format loss fault fault_seed output out_tbin obs_opts =
  if format = `Pcap && out_tbin <> None then begin
    Printf.eprintf
      "nfswlgen: --out-tbin requires --format trace or tbin (the pcap path emits packets, not \
       records)\n\
       %!";
    exit 2
  end;
  if format <> `Pcap && (fault <> `None || loss > 0.) then begin
    prerr_endline
      "nfswlgen: --loss and --fault require --format pcap (records are written without passing \
       the monitor port)";
    exit 2
  end;
  if fault <> `None && loss > 0. then begin
    prerr_endline "nfswlgen: --loss and --fault both set the monitor's loss; give one of them";
    exit 2
  end;
  let stage = if format = `Pcap then "emit-pcap" else "simulate" in
  Obs_cli.with_session obs_opts ~stage "nfswlgen" @@ fun session ->
  let obs = session.obs in
  let day = Nt_util.Trace_week.Wed in
  let start = Nt_util.Trace_week.time_of ~day ~hour:start_hour ~minute:0 in
  let stop = start +. (3600. *. hours) in
  let with_out f =
    match output with
    | "-" -> f stdout
    | path ->
        let oc = open_out_bin path in
        Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)
  in
  (* Optional side copy of the record stream in the compact binary
     format, written alongside whatever the primary format is. *)
  let tbin_copy =
    match out_tbin with
    | None -> None
    | Some path ->
        let oc = open_out_bin path in
        Some (oc, Nt_tbin.Writer.create (output_string oc))
  in
  let copy r = match tbin_copy with Some (_, w) -> Nt_tbin.Writer.add w r | None -> () in
  let close_copy () =
    match tbin_copy with
    | Some (oc, w) ->
        Nt_tbin.Writer.close w;
        close_out oc
    | None -> ()
  in
  let simulate sink =
    match system with
    | `Campus ->
        let config = { Nt_workload.Email.default_config with users } in
        ignore (Nt_core.Pipeline.simulate_campus ~obs ~config ~start ~stop ~sink ())
    | `Eecs ->
        let config = { Nt_workload.Research.default_config with users } in
        ignore (Nt_core.Pipeline.simulate_eecs ~obs ~config ~start ~stop ~sink ())
  in
  let emit_trace oc =
    let n = ref 0 in
    let sink r =
      Nt_trace.Record.output_line oc r;
      copy r;
      incr n;
      Obs_cli.tick session
    in
    simulate sink;
    Printf.eprintf "nfswlgen: wrote %d records\n%!" !n
  in
  let emit_tbin oc =
    let w = Nt_tbin.Writer.create (output_string oc) in
    let n = ref 0 in
    let sink r =
      Nt_tbin.Writer.add w r;
      copy r;
      incr n;
      Obs_cli.tick session
    in
    simulate sink;
    Nt_tbin.Writer.close w;
    Printf.eprintf "nfswlgen: wrote %d records\n%!" !n
  in
  let emit_pcap oc =
    let plan =
      match fault with
      | `None when loss > 0. -> Some (Nt_sim.Fault.bernoulli_loss loss)
      | `None -> None
      | `Burst -> Some Nt_sim.Fault.campus_burst
      | `Truncate ->
          (* Snaplen-style damage: a quarter of the frames cut to 64
             bytes, which the capture engine counts as undecodable. *)
          Some { Nt_sim.Fault.none with truncate = 0.25; truncate_to = 64 }
    in
    let writer = Nt_net.Pcap.writer_to_channel oc in
    let stats =
      match system with
      | `Campus ->
          let config = { Nt_workload.Email.default_config with users } in
          Nt_core.Pipeline.campus_to_pcap ~obs ~config ?fault:plan ~seed:fault_seed ~start ~stop
            ~writer ()
      | `Eecs ->
          let config = { Nt_workload.Research.default_config with users } in
          Nt_core.Pipeline.eecs_to_pcap ~obs ~config ?fault:plan ~seed:fault_seed ~start ~stop
            ~writer ()
    in
    Option.iter (fun p -> Nt_obs.Progress.tick p stats.run.records) session.progress;
    Printf.eprintf "nfswlgen: %d records, %d packets written, %d dropped at monitor\n%!"
      stats.run.records stats.packets_written stats.packets_dropped
  in
  with_out (match format with `Trace -> emit_trace | `Tbin -> emit_tbin | `Pcap -> emit_pcap);
  close_copy ();
  0

let system =
  Arg.(
    value
    & opt (enum [ ("campus", `Campus); ("eecs", `Eecs) ]) `Campus
    & info [ "s"; "system" ] ~docv:"SYSTEM"
        ~doc:"Workload to generate: campus (email) or eecs (research).")

let users =
  Arg.(value & opt int 25 & info [ "u"; "users" ] ~docv:"N" ~doc:"Simulated user population.")

let start_hour =
  Arg.(
    value & opt int 9 & info [ "start-hour" ] ~docv:"H" ~doc:"Hour of (Wednesday) trace start, 0-23.")

let hours =
  Arg.(value & opt float 1. & info [ "hours" ] ~docv:"H" ~doc:"Length of the trace window in hours.")

let format =
  Arg.(
    value
    & opt (enum [ ("trace", `Trace); ("tbin", `Tbin); ("pcap", `Pcap) ]) `Trace
    & info [ "f"; "format" ] ~docv:"FMT"
        ~doc:"Output format: trace (text records), tbin (compact nttb/1 binary records), or \
              pcap (packets).")

let loss =
  Arg.(
    value & opt float 0.
    & info [ "loss" ] ~docv:"P" ~doc:"Monitor-port packet loss probability (pcap format only; not with --fault).")

let fault =
  Arg.(
    value
    & opt (enum [ ("none", `None); ("burst", `Burst); ("truncate", `Truncate) ]) `None
    & info [ "fault" ] ~docv:"PLAN"
        ~doc:
          "Inject a monitor fault plan (pcap format only): burst (Gilbert-Elliott bursty \
           loss with light damage) or truncate (snaplen-style frame truncation).")

let fault_seed =
  Arg.(
    value & opt int64 2003L
    & info [ "fault-seed" ] ~docv:"SEED" ~doc:"Seed for the fault injector.")

let output =
  Arg.(
    value & opt string "-" & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file (- for stdout).")

let out_tbin =
  Arg.(
    value
    & opt (some string) None
    & info [ "out-tbin" ] ~docv:"FILE"
        ~doc:
          "Also write the generated records to $(docv) as an nttb/1 binary trace (trace and \
           tbin formats only; the pcap path never materializes records).")

let cmd =
  Cmd.v
    (Cmd.info "nfswlgen" ~doc:"Generate a synthetic NFS workload trace or capture")
    Term.(
      const run $ system $ users $ start_hour $ hours $ format $ loss $ fault $ fault_seed
      $ output $ out_tbin $ Obs_cli.term)

let () = exit (Cmd.eval' cmd)
