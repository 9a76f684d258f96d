(* nfsstats: run the paper's analyses over a saved text trace.

   Example: nfsstats --analysis summary,runs,names --jobs 4 campus.trace *)

open Cmdliner

let load ~obs ~rejected prog sampler input =
  Nt_core.Pipeline.load_trace ~obs ~rejected
    ~tick:(fun () ->
      Obs_cli.tick prog ~stage:"load" 1;
      Nt_obs.Sampler.tick sampler)
    input

let run input analyses jobs shard_records lint obs_opts =
  let obs = Nt_obs.Obs.create () in
  let timeline = Obs_cli.timeline obs_opts obs in
  let sampler = Nt_obs.Sampler.create ~interval:0.05 obs in
  let prog = Obs_cli.progress obs_opts "nfsstats" in
  let rejected = ref 0 in
  let records =
    Nt_obs.Obs.with_span obs "load" (fun () -> load ~obs ~rejected prog sampler input)
  in
  Nt_obs.Obs.add
    (Nt_obs.Obs.counter obs ~help:"trace records loaded" "stats.records")
    (List.length records);
  Nt_obs.Obs.add
    (Nt_obs.Obs.counter obs ~help:"malformed trace lines skipped" "stats.rejected")
    !rejected;
  Printf.eprintf "nfsstats: %d records loaded\n%!" (List.length records);
  if !rejected > 0 then Printf.eprintf "nfsstats: %d malformed lines skipped\n%!" !rejected;
  if lint then begin
    let l = Nt_core.Pipeline.lint_records ~obs records in
    List.iter
      (fun f -> Printf.eprintf "nfsstats: %s\n" (Nt_lint.Finding.to_string f))
      (Nt_lint.Engine.findings l);
    Printf.eprintf "nfsstats: lint: %d error(s), %d warning(s)\n%!"
      (Nt_lint.Engine.severity_count l Nt_lint.Rule.Error)
      (Nt_lint.Engine.severity_count l Nt_lint.Rule.Warn)
  end;
  List.iter
    (fun a ->
      Nt_obs.Obs.add
        (Nt_obs.Obs.counter obs
           ~labels:[ ("pass", Nt_par.Report.section_name a) ]
           ~help:"records fed to each analysis pass" "analysis.records")
        (List.length records))
    analyses;
  Obs_cli.set_stage prog "analyze";
  let sections =
    Nt_obs.Obs.with_span obs "analyze" (fun () ->
        Nt_core.Pipeline.analyze_records ~obs ?timeline ~jobs ~records_per_shard:shard_records
          ~sections:analyses records)
  in
  List.iter
    (fun (_, text) ->
      print_string text;
      print_newline ())
    sections;
  ignore (Nt_obs.Sampler.sample_now sampler : Nt_obs.Sampler.sample);
  Obs_cli.finish prog;
  Obs_cli.dump obs_opts obs;
  Obs_cli.dump_timeline ~sampler obs_opts timeline;
  0

let input =
  Arg.(
    required & pos 0 (some string) None
    & info [] ~docv:"TRACE"
        ~doc:
          "Input trace: - for stdin (text), a path (format sniffed: .ntb extension or nttb/1 \
           magic means binary), or an explicit trace:PATH / tbin:PATH.")

let analyses =
  let kind =
    Arg.enum [ ("summary", `Summary); ("runs", `Runs); ("names", `Names); ("hourly", `Hourly) ]
  in
  Arg.(
    value
    & opt (list kind) [ `Summary ]
    & info [ "a"; "analysis" ] ~docv:"LIST" ~doc:"Analyses to run: summary, runs, names, hourly.")

let jobs =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the sharded analysis engine (default 1: inline, no domains; 0: the \
           machine's recommended domain count). The report text is byte-identical at any setting \
           — sharding and merge order never depend on it.")

let shard_records =
  Arg.(
    value
    & opt int Nt_par.Report.default_records_per_shard
    & info [ "shard-records" ] ~docv:"N" ~doc:"Records per analysis shard.")

let lint =
  Arg.(
    value & flag
    & info [ "lint" ]
        ~doc:
          "Run the static checker over the loaded records before analyzing; findings go to \
           stderr so suspicious traces are flagged next to the numbers they distort.")

let cmd =
  Cmd.v
    (Cmd.info "nfsstats" ~doc:"Analyze a saved NFS trace")
    Term.(const run $ input $ analyses $ jobs $ shard_records $ lint $ Obs_cli.term)

let () = exit (Cmd.eval' cmd)
