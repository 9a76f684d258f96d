(* nfstrace: the passive tracer. Decode a pcap capture of NFS traffic
   into nfsdump-style text trace records.

   Example: nfstrace capture.pcap -o capture.trace --metrics=run.json *)

open Cmdliner

let run input output out_tbin salvage obs_opts =
  Obs_cli.with_session obs_opts ~stage:"decode" "nfstrace" @@ fun session ->
  let ic = if input = "-" then stdin else open_in_bin input in
  (* A damaged global header raises here, before any output is opened:
     no endianness or tick unit is left to resync with. *)
  let reader = Nt_net.Pcap.reader_of_channel ~obs:session.obs ~salvage ic in
  let oc = if output = "-" then stdout else open_out output in
  let toc = Option.map open_out_bin out_tbin in
  let stats, aborted =
    Fun.protect
      ~finally:(fun () ->
        Option.iter close_out toc;
        if output <> "-" then close_out oc)
      (fun () ->
        Nt_core.Pipeline.trace_pcap ~obs:session.obs ?timeline:session.timeline
          ~emit:(fun _ -> Obs_cli.tick session)
          ?tbin:toc reader oc)
  in
  if input <> "-" then close_in ic;
  Option.iter
    (fun msg ->
      let hint = if salvage then "" else "; retry with --salvage to resync past damage" in
      Printf.eprintf "nfstrace: corrupt pcap (%s)%s\n%!" msg hint)
    aborted;
  Printf.eprintf "nfstrace: %s\n%!" (Nt_trace.Capture.stats_to_string stats);
  if Option.is_none aborted then 0 else 1

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

let cmd =
  Cmd.v
    (Cmd.info "nfstrace" ~doc:"Decode a pcap capture into NFS trace records")
    Term.(const run $ input $ output $ out_tbin $ salvage $ Obs_cli.term)

let () = exit (Cmd.eval' cmd)
