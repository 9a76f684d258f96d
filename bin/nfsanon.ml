(* nfsanon: anonymize a text, tbin or pcap trace the way the paper's
   tools do — consistent random mappings for names, UIDs, GIDs and
   addresses, with structural markers preserved.

   Example: nfsanon --seed 12345 raw.trace -o anon.trace *)

open Cmdliner

let run input output seed omit obs_opts =
  Obs_cli.with_session obs_opts ~stage:"anonymize" "nfsanon" @@ fun session ->
  let obs = session.obs in
  let config =
    if omit then Nt_trace.Anonymize.omit_config else Nt_trace.Anonymize.default_config
  in
  let anon =
    Nt_trace.Anonymize.create ~obs ?seed:(Option.map Int64.of_string seed) config
  in
  let c_records = Nt_obs.Obs.counter obs ~help:"records anonymized" "anon.records" in
  let oc = if output = "-" then stdout else open_out output in
  let n = ref 0 in
  let source =
    Fun.protect
      ~finally:(fun () -> if output <> "-" then close_out oc)
      (fun () ->
        Nt_obs.Obs.with_span obs "anonymize" (fun () ->
            Nt_core.Pipeline.iter_trace ~obs input (fun r ->
                Nt_trace.Record.output_line oc (Nt_trace.Anonymize.record anon r);
                incr n;
                Nt_obs.Obs.inc c_records;
                Obs_cli.tick session)))
  in
  Nt_obs.Obs.add
    (Nt_obs.Obs.counter obs ~help:"malformed trace lines skipped" "anon.rejected")
    source.rejected;
  Printf.eprintf "nfsanon: %d records, %d distinct name components mapped\n%!" !n
    (Nt_trace.Anonymize.mapped_names anon);
  List.iter prerr_endline (Nt_core.Pipeline.skipped_notes ~tool:"nfsanon" source);
  0

let input =
  Arg.(
    required & pos 0 (some string) None
    & info [] ~docv:"TRACE"
        ~doc:
          "Input trace: - for stdin (text), a path (sniffed by content: nttb/1 magic means \
           binary, a pcap magic a capture, text otherwise), or an explicit trace:PATH / \
           tbin:PATH / pcap:PATH. A capture is decoded as nfstrace --salvage does.")

let output =
  Arg.(
    value & opt string "-" & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file (- for stdout).")

let seed =
  Arg.(
    value
    & opt (some string) None
    & info [ "seed" ] ~docv:"INT64"
        ~doc:"Secret mapping seed. Keep it private: publishing it enables known-text attacks.")

let omit =
  Arg.(value & flag & info [ "omit" ] ~doc:"Drop names/UIDs/GIDs/IPs entirely instead of mapping.")

let cmd =
  Cmd.v
    (Cmd.info "nfsanon" ~doc:"Anonymize an NFS trace for sharing")
    Term.(const run $ input $ output $ seed $ omit $ Obs_cli.term)

let () = exit (Cmd.eval' cmd)
