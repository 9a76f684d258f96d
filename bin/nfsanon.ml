(* nfsanon: anonymize a text or tbin trace the way the paper's tools do —
   consistent random mappings for names, UIDs, GIDs and addresses, with
   structural markers preserved.

   Example: nfsanon --seed 12345 raw.trace -o anon.trace *)

open Cmdliner

let run input output seed omit obs_opts =
  if Nt_core.Pipeline.refuse_pcap ~tool:"nfsanon" input then 2
  else
  let config =
    if omit then Nt_trace.Anonymize.omit_config else Nt_trace.Anonymize.default_config
  in
  let obs = Nt_obs.Obs.create () in
  let timeline = Obs_cli.timeline obs_opts obs in
  let sampler = Nt_obs.Sampler.create ~interval:0.05 obs in
  let prog = Obs_cli.progress obs_opts "nfsanon" in
  let anon =
    Nt_trace.Anonymize.create ~obs ?seed:(Option.map Int64.of_string seed) config
  in
  let c_records = Nt_obs.Obs.counter obs ~help:"records anonymized" "anon.records" in
  let oc = if output = "-" then stdout else open_out output in
  let n = ref 0 in
  let line = Buffer.create 256 in
  let source =
    Nt_obs.Obs.with_span obs "anonymize" (fun () ->
        Nt_core.Pipeline.iter_trace ~obs input (fun r ->
            Nt_trace.Record.output_line line oc (Nt_trace.Anonymize.record anon r);
            incr n;
            Nt_obs.Obs.inc c_records;
            Nt_obs.Sampler.tick sampler;
            Obs_cli.tick prog ~stage:"anonymize" 1))
  in
  if output <> "-" then close_out oc;
  Nt_obs.Obs.add
    (Nt_obs.Obs.counter obs ~help:"malformed trace lines skipped" "anon.rejected")
    source.rejected;
  Printf.eprintf "nfsanon: %d records, %d distinct name components mapped\n%!" !n
    (Nt_trace.Anonymize.mapped_names anon);
  List.iter prerr_endline (Nt_core.Pipeline.skipped_notes ~tool:"nfsanon" source);
  Obs_cli.finish prog;
  Obs_cli.dump obs_opts obs;
  Obs_cli.dump_timeline ~sampler obs_opts timeline;
  0

let input =
  Arg.(
    required & pos 0 (some string) None
    & info [] ~docv:"TRACE" ~doc:"Input trace: - for stdin (text), a path sniffed by content, or tbin:PATH.")

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
