(* nfslint: static checker for trace invariants and anonymization-leak
   safety. Streams a saved text or tbin trace through the rule engine and
   exits non-zero when findings reach the --fail-on threshold.

   Examples:
     nfslint campus.trace
     nfslint --anonymized --json --fail-on warn campus.anon.trace
     nfslint --list-rules *)

open Cmdliner
module Lint = Nt_lint.Engine

let list_rules () =
  Rules_cli.print
    (List.map
       (fun (r : Nt_lint.Rule.t) ->
         {
           Rules_cli.id = r.id;
           family = Nt_lint.Rule.family_to_string r.family;
           severity = Nt_lint.Rule.severity_to_string r.severity;
           doc = r.doc;
         })
       Nt_lint.Rule.all);
  0

let run input json fail_on anonymized enabled_only disabled reorder_window xid_window
    max_tracked list obs_opts =
  if list then list_rules ()
  else
    let unknown =
      List.filter
        (fun id -> Nt_lint.Rule.find id = None)
        (disabled @ Option.value enabled_only ~default:[])
    in
    if unknown <> [] then begin
      Printf.eprintf "nfslint: unknown rule(s): %s (try --list-rules)\n%!"
        (String.concat ", " unknown);
      2
    end
    else if Nt_core.Pipeline.refuse_pcap ~tool:"nfslint" input then 2
    else
      let config =
        {
          Lint.default_config with
          anonymized;
          enabled_only;
          disabled;
          reorder_window;
          xid_window;
          max_tracked;
        }
      in
      let obs = Nt_obs.Obs.create () in
      let timeline = Obs_cli.timeline obs_opts obs in
      let sampler = Nt_obs.Sampler.create ~interval:0.05 obs in
      let prog = Obs_cli.progress obs_opts "nfslint" in
      let tick () =
        Obs_cli.tick prog ~stage:"lint" 1;
        Nt_obs.Sampler.tick sampler
      in
      let t = Lint.create ~obs config in
      let source =
        Nt_obs.Obs.with_span obs "lint.run" (fun () ->
            Nt_core.Pipeline.iter_trace ~obs input (fun r ->
                tick ();
                Lint.observe t r))
      in
      Nt_obs.Obs.add
        (Nt_obs.Obs.counter obs ~help:"malformed trace lines skipped" "lint.rejected")
        source.rejected;
      Obs_cli.finish prog;
      let findings = Lint.findings t in
      if json then print_endline (Nt_lint.Finding.list_to_json findings)
      else List.iter (fun f -> print_endline (Nt_lint.Finding.to_string f)) findings;
      Printf.eprintf "nfslint: %d records, %d error(s), %d warning(s), %d info%s\n%!"
        (Lint.records_seen t)
        (Lint.severity_count t Nt_lint.Rule.Error)
        (Lint.severity_count t Nt_lint.Rule.Warn)
        (Lint.severity_count t Nt_lint.Rule.Info)
        (if Lint.suppressed t > 0 then
           Printf.sprintf " (%d findings suppressed past per-rule cap)" (Lint.suppressed t)
         else "");
      List.iter prerr_endline (Nt_core.Pipeline.skipped_notes ~tool:"nfslint" source);
      ignore (Nt_obs.Sampler.sample_now sampler : Nt_obs.Sampler.sample);
      Obs_cli.dump obs_opts obs;
      Obs_cli.dump_timeline ~sampler obs_opts timeline;
      let failed =
        match fail_on with
        | `Never -> false
        | `Error -> Lint.severity_count t Nt_lint.Rule.Error > 0
        | `Warn ->
            Lint.severity_count t Nt_lint.Rule.Error > 0
            || Lint.severity_count t Nt_lint.Rule.Warn > 0
      in
      if failed then 1 else 0

let input =
  Arg.(
    value & pos 0 string "-"
    & info [] ~docv:"TRACE"
        ~doc:
          "Input trace: - for stdin (text), a path (sniffed by content: nttb/1 magic means \
           binary, text otherwise), or an explicit trace:PATH / tbin:PATH.")

let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit findings as a JSON array.")

let fail_on =
  Arg.(
    value
    & opt (enum [ ("never", `Never); ("warn", `Warn); ("error", `Error) ]) `Error
    & info [ "fail-on" ] ~docv:"LEVEL"
        ~doc:"Exit non-zero when findings reach $(docv): never, warn, or error.")

let anonymized =
  Arg.(
    value & flag
    & info [ "anonymized" ]
        ~doc:
          "The trace claims to be anonymized: also run the anonymization-leak family (raw \
           addresses, unmapped IDs, name residue, dictionary words).")

let enabled_only =
  Arg.(
    value
    & opt (some (list string)) None
    & info [ "enable" ] ~docv:"RULES" ~doc:"Run only these comma-separated rule ids.")

let disabled =
  Arg.(
    value & opt (list string) []
    & info [ "disable" ] ~docv:"RULES" ~doc:"Skip these comma-separated rule ids.")

let reorder_window =
  Arg.(
    value
    & opt float Lint.default_config.Lint.reorder_window
    & info [ "reorder-window" ] ~docv:"SECONDS"
        ~doc:"Tolerated backwards step in call time before non-monotonic-time fires.")

let xid_window =
  Arg.(
    value
    & opt float Lint.default_config.Lint.xid_window
    & info [ "xid-window" ] ~docv:"SECONDS"
        ~doc:"Window within which (client, XID) reuse counts as duplicate-xid.")

let max_tracked =
  Arg.(
    value
    & opt int Lint.default_config.Lint.max_tracked
    & info [ "max-tracked" ] ~docv:"N"
        ~doc:"State cap per table (handles, XIDs, bindings); memory stays bounded on \
              arbitrarily long traces.")

let cmd =
  Cmd.v
    (Cmd.info "nfslint" ~doc:"Statically check a saved NFS trace for invariant violations")
    Term.(
      const run $ input $ json $ fail_on $ anonymized $ enabled_only $ disabled
      $ reorder_window $ xid_window $ max_tracked $ Rules_cli.term $ Obs_cli.term)

let () = exit (Cmd.eval' cmd)
