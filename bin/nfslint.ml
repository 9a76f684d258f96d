(* nfslint: static checker for trace invariants and anonymization-leak
   safety. Streams a saved text, tbin or pcap trace (a capture's loss
   accounting too) through the rule engine and exits non-zero when
   findings reach the --fail-on threshold.

   Examples:
     nfslint campus.trace
     nfslint --fail-on warn capture.pcap
     nfslint --anonymized --json --fail-on warn campus.anon.trace
     nfslint --list-rules *)

open Cmdliner
module Lint = Nt_lint.Engine

let run input json fail_on anonymized select reorder_window xid_window max_tracked list
    obs_opts =
  if list then begin
    Rules_cli.print Nt_lint.Rule.all;
    0
  end
  else if Rules_cli.unknown_rules ~tool:"nfslint" ~hint:"--list-rules" Nt_lint.Rule.all select
  then 2
  else
    Obs_cli.with_session obs_opts ~stage:"lint" "nfslint" @@ fun session ->
    let obs = session.obs in
    (* A capture emits records as they complete, and an unanswered call
       only when its reply times out, so call times step back by up to
       twice the timeout. *)
    let reorder_window =
      match (reorder_window, Nt_core.Pipeline.source input) with
      | Some w, _ -> w
      | None, (Pcap, _) -> 2. *. Nt_trace.Capture.lost_reply_timeout
      | None, ((Text | Tbin), _) -> Lint.default_config.reorder_window
    in
    let config =
      {
        Lint.default_config with
        anonymized;
        select;
        reorder_window;
        xid_window;
        max_tracked;
      }
    in
    let t = Lint.create ~obs config in
    let source =
      Nt_obs.Obs.with_span obs "lint.run" (fun () ->
          Nt_core.Pipeline.iter_trace ~obs input (fun r ->
              Obs_cli.tick session;
              Lint.observe t r))
    in
    Option.iter (Lint.observe_stats t) source.capture;
    Nt_obs.Obs.add
      (Nt_obs.Obs.counter obs ~help:"malformed trace lines skipped" "lint.rejected")
      source.rejected;
    let findings = Lint.findings t in
    if json then print_endline (Nt_lint.Finding.list_to_json findings)
    else List.iter (fun f -> print_endline (Nt_lint.Finding.to_string f)) findings;
    let tally = Lint.tally t in
    Printf.eprintf "nfslint: %d records, %s%s\n%!" (Lint.records_seen t)
      (Rules_cli.severity_counts tally)
      (if Nt_rules.capped tally > 0 then
         Printf.sprintf " (%d findings suppressed past per-rule cap)" (Nt_rules.capped tally)
       else "");
    List.iter prerr_endline (Nt_core.Pipeline.skipped_notes ~tool:"nfslint" source);
    if Nt_rules.fails ~fail_on tally then 1 else 0

let input =
  Arg.(
    value & pos 0 string "-"
    & info [] ~docv:"TRACE"
        ~doc:
          "Input trace: - for stdin (text), a path (sniffed by content: nttb/1 magic means \
           binary, a pcap magic a capture, text otherwise), or an explicit trace:PATH / \
           tbin:PATH / pcap:PATH. A capture is decoded as nfstrace --salvage does.")

let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit findings as a JSON array.")

let anonymized =
  Arg.(
    value & flag
    & info [ "anonymized" ]
        ~doc:
          "The trace claims to be anonymized: also run the anonymization-leak family (raw \
           addresses, unmapped IDs, name residue, dictionary words).")

let reorder_window =
  Arg.(
    value
    & opt (some float) None
    & info [ "reorder-window" ] ~docv:"SECONDS"
        ~doc:
          (Printf.sprintf
             "Tolerated backwards step in call time before non-monotonic-time fires (default \
              %g s; %g s for a pcap, whose records leave the capture in completion order)."
             Lint.default_config.Lint.reorder_window
             (2. *. Nt_trace.Capture.lost_reply_timeout)))

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
      const run $ input $ json $ Rules_cli.fail_on $ anonymized $ Rules_cli.select
      $ reorder_window $ xid_window $ max_tracked $ Rules_cli.term $ Obs_cli.term)

let () = exit (Cmd.eval' cmd)
