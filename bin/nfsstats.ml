(* nfsstats: run the paper's analyses over a saved text, tbin or pcap
   trace, streamed from the file in one pass.

   Example: nfsstats --analysis summary,runs,names --jobs 4 campus.trace *)

open Cmdliner
module Obs = Nt_obs.Obs
module Pipeline = Nt_core.Pipeline

let run input analyses jobs obs_opts =
  Obs_cli.with_session obs_opts ~stage:"analyze" "nfsstats" @@ fun session ->
  let obs = session.obs in
  (* one pass over the source: the report fold sees each record as it
     is decoded, and the trace is never held in memory. The session
     ticks on the calling domain. *)
  let sections, n, source =
    Obs.with_span obs "analyze" (fun () ->
        Pipeline.analyze_trace ~obs ?timeline:session.timeline ~jobs
          ~tap:(fun _ -> Obs_cli.tick session)
          ~sections:analyses input)
  in
  Obs.add (Obs.counter obs ~help:"trace records loaded" "stats.records") n;
  Obs.add
    (Obs.counter obs ~help:"malformed trace lines skipped" "stats.rejected")
    source.rejected;
  Printf.eprintf "nfsstats: %d records loaded\n%!" n;
  List.iter prerr_endline (Pipeline.skipped_notes ~tool:"nfsstats" source);
  List.iter
    (fun a ->
      Obs.add
        (Obs.counter obs
           ~labels:[ ("pass", Nt_par.Report.section_name a) ]
           ~help:"records fed to each analysis pass" "analysis.records")
        n)
    analyses;
  List.iter
    (fun (_, text) ->
      print_string text;
      print_newline ())
    sections;
  0

let input =
  Arg.(
    required & pos 0 (some string) None
    & info [] ~docv:"TRACE"
        ~doc:
          "Input trace: - for stdin (text), a path (sniffed by content: nttb/1 magic means \
           binary, a pcap magic a capture, text otherwise), or an explicit trace:PATH / \
           tbin:PATH / pcap:PATH. A capture is decoded as nfstrace --salvage does.")

let analyses =
  let names = List.map Nt_par.Report.section_name Nt_par.Report.all_sections in
  let kind = Arg.enum (List.combine names Nt_par.Report.all_sections) in
  Arg.(
    value
    & opt (list kind) [ `Summary ]
    & info [ "a"; "analysis" ] ~docv:"LIST"
        ~doc:
          ("Analyses to run, printed in the order given: " ^ String.concat ", " names
         ^ ". Sections that read one fold share it (daily reads summary's, variance hourly's; \
            runs, sizes and seqmetric one runs fold). lifetime keeps the weekday 9am phases \
            of the trace week and reads the trace as one range."))

let non_negative_int =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n >= 0 -> Ok n
    | Ok n -> Error (`Msg (Printf.sprintf "%d is not a non-negative integer" n))
    | Error _ as e -> e
  in
  Arg.conv ~docv:"N" (parse, Arg.conv_printer Arg.int)

let jobs =
  Arg.(
    value & opt non_negative_int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Cut the trace file into N byte ranges (default 1; 0: the machine's recommended \
           domain count; at most 64). Each range is decoded and folded into its own \
           accumulators on a domain of its own, and the ranges merge in file order once all \
           are read. Text ranges split at line starts; a tbin range owns the frames that start \
           in it. stdin, pipes, a pcap and a file shorter than N bytes read as one range. The \
           report text, the record count and the skipped-input counts are identical at any \
           setting.")

let cmd =
  Cmd.v
    (Cmd.info "nfsstats" ~doc:"Analyze a saved NFS trace")
    Term.(const run $ input $ analyses $ jobs $ Obs_cli.term)

let () = exit (Cmd.eval' cmd)
