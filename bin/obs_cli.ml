(* Shared --metrics / --metrics-format / --progress / --trace-out
   plumbing for the binaries in this directory. Each batch tool runs in
   one [with_session], wires its registry through the components it
   drives and calls [tick] per record; the session writes what was
   asked for on the way out. *)

open Cmdliner
module Obs = Nt_obs.Obs

type format = Json | Prometheus

type opts = {
  metrics : string option;
  format : format;
  progress : bool;
  trace_out : string option;
}

let metrics_arg =
  Arg.(
    value
    & opt ~vopt:(Some "-") (some string) None
    & info [ "metrics" ] ~docv:"PATH"
        ~doc:
          "Dump an observability snapshot (counters, gauges, histograms and stage-span \
           timings) after the run. With no $(docv) or with '-' the snapshot goes to stdout; \
           otherwise it is written to $(docv).")

let format_arg =
  Arg.(
    value
    & opt (enum [ ("json", Json); ("prometheus", Prometheus) ]) Json
    & info [ "metrics-format" ] ~docv:"FMT"
        ~doc:
          "Snapshot format: json (one self-describing document) or prometheus (text \
           exposition format).")

let progress_arg =
  Arg.(
    value & flag
    & info [ "progress" ]
        ~doc:
          "Print a throttled heartbeat to stderr while working: records so far, rate, \
           current stage, and an ETA when the total is known.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event timeline of the run to $(docv): stage and per-pass \
           spans on per-domain tracks plus heap/RSS counter tracks. Load it in \
           ui.perfetto.dev or chrome://tracing.")

let term =
  Term.(
    const (fun metrics format progress trace_out -> { metrics; format; progress; trace_out })
    $ metrics_arg $ format_arg $ progress_arg $ trace_arg)

let dump opts obs =
  match opts.metrics with
  | None -> ()
  | Some path ->
      let snap = Obs.snapshot obs in
      let text =
        match opts.format with
        | Json -> Obs.to_json snap
        | Prometheus -> Obs.to_prometheus snap
      in
      if path = "-" then begin
        print_string text;
        flush stdout
      end
      else begin
        let oc = open_out path in
        Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)
      end

(* [write_timeline] folds a sampler's readings into a timeline as
   counter tracks and writes the file. Counters go on their own
   synthetic track so late-dumped samples are not clamped forward by
   the main track's already-advanced span clock. *)

let counters_tid = 1_000_000

let write_timeline ~sampler ~path tl =
  List.iter
    (fun (smp : Nt_obs.Sampler.sample) ->
      Nt_obs.Timeline.counter tl ~tid:counters_tid ~name:"heap_words" ~ts:smp.Nt_obs.Sampler.at
        ~value:(float_of_int smp.Nt_obs.Sampler.heap_words)
        ();
      Nt_obs.Timeline.counter tl ~tid:(counters_tid + 1) ~name:"rss_bytes"
        ~ts:smp.Nt_obs.Sampler.at
        ~value:(float_of_int smp.Nt_obs.Sampler.rss_bytes)
        ())
    (Nt_obs.Sampler.samples sampler);
  Nt_obs.Timeline.write_file tl path

(* A batch tool's telemetry: one registry, a timeline attached when
   --trace-out was given, a resource sampler, and the --progress
   heartbeat at one stage. [tick] once per record; [close] takes the
   final sample and writes the snapshot and the timeline. *)

type session = {
  opts : opts;
  obs : Obs.t;
  timeline : Nt_obs.Timeline.t option;
  sampler : Nt_obs.Sampler.t;
  progress : Nt_obs.Progress.t option;
}

let tick s =
  Nt_obs.Sampler.tick s.sampler;
  match s.progress with None -> () | Some p -> Nt_obs.Progress.tick p 1

let close s =
  ignore (Nt_obs.Sampler.sample_now s.sampler : Nt_obs.Sampler.sample);
  Option.iter Nt_obs.Progress.finish s.progress;
  dump s.opts s.obs;
  match (s.opts.trace_out, s.timeline) with
  | Some path, Some tl -> write_timeline ~sampler:s.sampler ~path tl
  | _ -> ()

(* [f]'s session, closed on every way out of [f]: a partial snapshot
   is what a post-mortem wants. A pcap source whose global header is
   damaged leaves nothing to salvage: [label]'s one line, as nfstrace
   prints it, and status 1. *)
let with_session opts ~stage label f =
  let obs = Obs.create () in
  let timeline =
    Option.map
      (fun _ ->
        let tl = Nt_obs.Timeline.create () in
        Nt_obs.Timeline.attach tl obs;
        tl)
      opts.trace_out
  in
  let sampler = Nt_obs.Sampler.create ~interval:0.05 obs in
  let progress =
    if opts.progress then begin
      let p = Nt_obs.Progress.create ~label () in
      Nt_obs.Progress.set_stage p stage;
      Some p
    end
    else None
  in
  let s = { opts; obs; timeline; sampler; progress } in
  Fun.protect
    ~finally:(fun () -> close s)
    (fun () ->
      try f s
      with Nt_net.Pcap.Bad_format msg ->
        Printf.eprintf "%s: corrupt pcap (%s)\n%!" label msg;
        1)
