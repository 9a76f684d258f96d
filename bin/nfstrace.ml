(* nfstrace: the passive tracer. Decode a pcap capture of NFS traffic
   into nfsdump-style text trace records.

   Example: nfstrace capture.pcap -o capture.trace --metrics=run.json *)

open Cmdliner
module Obs = Nt_obs.Obs

let run input output out_tbin salvage lint obs_opts =
  let ic = if input = "-" then stdin else open_in_bin input in
  let obs = Obs.create () in
  let timeline = Obs_cli.timeline obs_opts obs in
  let sampler = Nt_obs.Sampler.create ~interval:0.05 obs in
  let prog = Obs_cli.progress obs_opts "nfstrace" in
  let corrupt msg =
    (* Salvage resyncs past damaged records, but a damaged global
       header leaves no endianness/tick-unit to resync with. *)
    let hint = if salvage then "" else "; retry with --salvage to resync past damage" in
    Printf.eprintf "nfstrace: corrupt pcap (%s)%s\n%!" msg hint
  in
  let decode reader =
    let oc = if output = "-" then stdout else open_out output in
    let toc = Option.map open_out_bin out_tbin in
    let linter =
      if lint then
        (* Streamed records are not globally call-time sorted (lost calls
           flush late), so leave the reorder rule plenty of slack. *)
        Some
          (Nt_lint.Engine.create ~obs
             { Nt_lint.Engine.default_config with reorder_window = 120. })
      else None
    in
    let emit r =
      Option.iter (fun l -> Nt_lint.Engine.observe l r) linter;
      Nt_obs.Sampler.tick sampler;
      Obs_cli.tick prog ~stage:"decode" 1
    in
    let stats, aborted =
      Fun.protect
        ~finally:(fun () ->
          Option.iter close_out toc;
          if output <> "-" then close_out oc)
        (fun () -> Nt_core.Pipeline.trace_pcap ~obs ?timeline ~emit ?tbin:toc reader oc)
    in
    Option.iter corrupt aborted;
    Printf.eprintf "nfstrace: %s\n%!" (Nt_trace.Capture.stats_to_string stats);
    Option.iter
      (fun l ->
        Nt_lint.Engine.observe_stats l stats;
        List.iter
          (fun f -> Printf.eprintf "nfstrace: %s\n" (Nt_lint.Finding.to_string f))
          (Nt_lint.Engine.findings l);
        Printf.eprintf "nfstrace: lint: %d error(s), %d warning(s)\n%!"
          (Nt_rules.severity_count (Nt_lint.Engine.tally l) Nt_rules.Error)
          (Nt_rules.severity_count (Nt_lint.Engine.tally l) Nt_rules.Warn))
      linter;
    if Option.is_none aborted then 0 else 1
  in
  let status =
    match Nt_net.Pcap.reader_of_channel ~obs ~salvage ic with
    | reader -> decode reader
    | exception Nt_net.Pcap.Bad_format msg ->
        corrupt msg;
        1
  in
  if input <> "-" then close_in ic;
  Obs_cli.finish prog;
  (* Dump whatever was counted even on a decode abort: a partial
     snapshot is exactly what post-mortems want. *)
  Obs_cli.dump obs_opts obs;
  Obs_cli.dump_timeline ~sampler obs_opts timeline;
  status

let input =
  Arg.(
    required & pos 0 (some string) None & info [] ~docv:"PCAP" ~doc:"Input pcap file (- for stdin).")

let output =
  Arg.(
    value & opt string "-"
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output trace file (- for stdout).")

let out_tbin =
  Arg.(
    value
    & opt (some string) None
    & info [ "out-tbin" ] ~docv:"FILE"
        ~doc:"Also write the decoded records to $(docv) as an nttb/1 binary trace.")

let salvage =
  Arg.(
    value & flag
    & info [ "salvage" ]
        ~doc:
          "Resync past corrupt pcap record headers instead of aborting; skipped bytes and \
           salvaged records are counted in the stats line.")

let lint =
  Arg.(
    value & flag
    & info [ "lint" ]
        ~doc:
          "Run the static checker over the decoded records and capture stats; findings go to \
           stderr and do not affect the exit code (use nfslint for gating).")

let cmd =
  Cmd.v
    (Cmd.info "nfstrace" ~doc:"Decode a pcap capture into NFS trace records")
    Term.(const run $ input $ output $ out_tbin $ salvage $ lint $ Obs_cli.term)

let () = exit (Cmd.eval' cmd)
