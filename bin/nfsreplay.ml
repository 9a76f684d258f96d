(* nfsreplay: replay the READ stream of a saved trace against the disk
   model under each read-ahead policy, reporting what the paper's §6.4
   server modification would have done for this workload.

   Example: nfsreplay campus.trace *)

open Cmdliner

module Record = Nt_trace.Record
module Fh = Nt_nfs.Fh
module Disk = Nt_sim.Disk
module Readahead = Nt_sim.Readahead

(* Each policy owns its disk and its total; the per-file request
   history depends only on the READ stream, so the policies share it. *)
type lane = { policy : Readahead.policy; disk : Disk.t; mutable total : float }

let block_size = 8192

(* Replay the trace's READ stream under every policy side by side, in
   one pass over the source. Returns the READ count and the source's
   accounting. *)
let replay ~obs ~on_record input lanes =
  let files : (string, Readahead.state) Hashtbl.t = Hashtbl.create 256 in
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
    Nt_core.Pipeline.iter_trace ~obs input (fun r ->
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
                  let st = Readahead.state () in
                  Hashtbl.add files hex st;
                  st
            in
            let block = Int64.to_int offset / block_size in
            let nblocks = max 1 ((count + block_size - 1) / block_size) in
            Readahead.observe st ~block ~nblocks;
            List.iter
              (fun l ->
                let service = Disk.read l.disk ~block:(base + block) ~nblocks in
                if Readahead.prefetch l.policy st then
                  ignore
                    (Disk.prefetch l.disk ~block:(base + block + nblocks)
                       ~nblocks:Readahead.prefetch_depth);
                l.total <- l.total +. service)
              lanes
        | _ -> ())
  in
  (!requests, source)

let run input obs_opts =
  Obs_cli.with_session obs_opts ~stage:"replay" "nfsreplay" @@ fun session ->
  let obs = session.obs in
  let lanes =
    List.map
      (fun policy -> { policy; disk = Disk.create (); total = 0. })
      [ Readahead.No_readahead; Fragile; Metric ]
  in
  let n = ref 0 in
  let requests, source =
    Nt_obs.Obs.with_span obs "replay" (fun () ->
        replay ~obs input lanes ~on_record:(fun () ->
            incr n;
            Obs_cli.tick session))
  in
  Printf.eprintf "nfsreplay: %d records loaded\n%!" !n;
  List.iter prerr_endline (Nt_core.Pipeline.skipped_notes ~tool:"nfsreplay" source);
  let baseline = (List.find (fun l -> l.policy = Readahead.Fragile) lanes).total in
  print_string
    (Nt_util.Tables.render
       ~title:"Disk service time for the trace's READ stream, per read-ahead policy"
       ~header:[ "policy"; "read requests"; "disk time"; "vs fragile" ]
       (List.map
          (fun l ->
            let name = Readahead.policy_name l.policy in
            Nt_obs.Obs.add
              (Nt_obs.Obs.counter obs
                 ~labels:[ ("policy", name) ]
                 ~help:"READ requests replayed against the disk model" "replay.read_requests")
              requests;
            Nt_obs.Obs.set
              (Nt_obs.Obs.gauge obs
                 ~labels:[ ("policy", name) ]
                 ~help:"modeled disk service time, seconds" "replay.disk_seconds")
              l.total;
            [
              name;
              string_of_int requests;
              Printf.sprintf "%.3f s" l.total;
              (if baseline > 0. then
                 Printf.sprintf "%+.1f%%" (100. *. (baseline -. l.total) /. baseline)
               else "-");
            ])
          lanes));
  0

let input =
  Arg.(
    required & pos 0 (some string) None
    & info [] ~docv:"TRACE"
        ~doc:
          "Input trace: - for stdin (text), a path (sniffed by content: nttb/1 magic means \
           binary, a pcap magic a capture, text otherwise), or an explicit trace:PATH / \
           tbin:PATH / pcap:PATH. A capture is decoded as nfstrace --salvage does.")

let cmd =
  Cmd.v
    (Cmd.info "nfsreplay" ~doc:"Replay a trace's reads against the disk model per read-ahead policy")
    Term.(const run $ input $ Obs_cli.term)

let () = exit (Cmd.eval' cmd)
