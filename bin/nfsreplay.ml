(* nfsreplay: replay the READ stream of a saved trace against the disk
   model under each read-ahead policy, reporting what the paper's §6.4
   server modification would have done for this workload.

   Example: nfsreplay campus.trace *)

open Cmdliner

module Record = Nt_trace.Record
module Fh = Nt_nfs.Fh
module Disk = Nt_sim.Disk

(* Per-file heuristic state, mirroring Nt_sim.Readahead but driven by
   an arbitrary trace. It depends only on the READ stream, so the three
   policies share it; each policy owns only its disk and its total. *)
type file_state = {
  mutable expected : int;
  mutable last_block : int;
  history : bool Queue.t;  (* was each recent access c-consecutive? *)
  mutable consecutive : int;
}

(* A read-ahead policy decides from "this read continues the last one"
   and "the file's recent reads are >= 75% c-consecutive". *)
type lane = {
  name : string;
  prefetch : sequential:bool -> metric:bool -> bool;
  disk : Disk.t;
  mutable total : float;
}

let block_size = 8192
let prefetch_depth = 8
let history_len = 32
let c = 10

(* Replay the trace's READ stream under every policy side by side, in
   one pass over the source. Returns the READ count and the source's
   accounting. *)
let replay ~on_record input lanes =
  let files : (string, file_state) Hashtbl.t = Hashtbl.create 256 in
  (* Distinct files map to distinct disk regions so cross-file seeks
     are visible to the arm model. *)
  let regions = Hashtbl.create 256 in
  let region_of hex =
    match Hashtbl.find_opt regions hex with
    | Some r -> r
    | None ->
        let r = Hashtbl.length regions * (1 lsl 16) in
        Hashtbl.add regions hex r;
        r
  in
  let requests = ref 0 in
  let source =
    Nt_core.Pipeline.iter_trace input (fun r ->
        on_record ();
        match r.Record.call with
        | Nt_nfs.Ops.Read { fh; offset; count } when count > 0 ->
            incr requests;
            let hex = Fh.to_hex_full fh in
            let base = region_of hex in
            let st =
              match Hashtbl.find_opt files hex with
              | Some st -> st
              | None ->
                  let st =
                    { expected = 0; last_block = -1; history = Queue.create (); consecutive = 0 }
                  in
                  Hashtbl.add files hex st;
                  st
            in
            let block = Int64.to_int offset / block_size in
            let nblocks = max 1 ((count + block_size - 1) / block_size) in
            let is_c_consecutive = st.last_block >= 0 && abs (block - st.last_block) <= c in
            if st.last_block >= 0 then begin
              Queue.push is_c_consecutive st.history;
              if is_c_consecutive then st.consecutive <- st.consecutive + 1;
              if Queue.length st.history > history_len then
                if Queue.pop st.history then st.consecutive <- st.consecutive - 1
            end;
            let sequential = block = st.expected in
            st.expected <- block + nblocks;
            st.last_block <- block;
            let metric =
              Queue.length st.history = 0
              || float_of_int st.consecutive /. float_of_int (Queue.length st.history) >= 0.75
            in
            List.iter
              (fun l ->
                let service = Disk.read l.disk ~block:(base + block) ~nblocks in
                if l.prefetch ~sequential ~metric then
                  ignore (Disk.prefetch l.disk ~block:(base + block + nblocks) ~nblocks:prefetch_depth);
                l.total <- l.total +. service)
              lanes
        | _ -> ())
  in
  (!requests, source)

let run input obs_opts =
  if Nt_core.Pipeline.refuse_pcap ~tool:"nfsreplay" input then 2
  else
  let obs = Nt_obs.Obs.create () in
  let timeline = Obs_cli.timeline obs_opts obs in
  let sampler = Nt_obs.Sampler.create ~interval:0.05 obs in
  let prog = Obs_cli.progress obs_opts "nfsreplay" in
  let lane name prefetch = { name; prefetch; disk = Disk.create (); total = 0. } in
  let fragile = lane "fragile" (fun ~sequential ~metric:_ -> sequential) in
  let lanes =
    [ lane "no-readahead" (fun ~sequential:_ ~metric:_ -> false); fragile;
      lane "seq-metric" (fun ~sequential:_ ~metric -> metric) ]
  in
  let n = ref 0 in
  let requests, source =
    Nt_obs.Obs.with_span obs "replay" (fun () ->
        replay input lanes ~on_record:(fun () ->
            incr n;
            Obs_cli.tick prog ~stage:"replay" 1;
            Nt_obs.Sampler.tick sampler))
  in
  Printf.eprintf "nfsreplay: %d records loaded\n%!" !n;
  List.iter prerr_endline (Nt_core.Pipeline.skipped_notes ~tool:"nfsreplay" source);
  let baseline = fragile.total in
  print_string
    (Nt_util.Tables.render
       ~title:"Disk service time for the trace's READ stream, per read-ahead policy"
       ~header:[ "policy"; "read requests"; "disk time"; "vs fragile" ]
       (List.map
          (fun l ->
            Nt_obs.Obs.add
              (Nt_obs.Obs.counter obs
                 ~labels:[ ("policy", l.name) ]
                 ~help:"READ requests replayed against the disk model" "replay.read_requests")
              requests;
            Nt_obs.Obs.set
              (Nt_obs.Obs.gauge obs
                 ~labels:[ ("policy", l.name) ]
                 ~help:"modeled disk service time, seconds" "replay.disk_seconds")
              l.total;
            [
              l.name;
              string_of_int requests;
              Printf.sprintf "%.3f s" l.total;
              (if baseline > 0. then
                 Printf.sprintf "%+.1f%%" (100. *. (baseline -. l.total) /. baseline)
               else "-");
            ])
          lanes));
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
          "Input trace: - for stdin (text), a path (sniffed by content: nttb/1 magic means \
           binary, text otherwise), or an explicit trace:PATH / tbin:PATH.")

let cmd =
  Cmd.v
    (Cmd.info "nfsreplay" ~doc:"Replay a trace's reads against the disk model per read-ahead policy")
    Term.(const run $ input $ Obs_cli.term)

let () = exit (Cmd.eval' cmd)
