module Record = Nt_trace.Record
module Obs = Nt_obs.Obs
module Timeline = Nt_obs.Timeline

type 'a pass = {
  name : string;
  init : unit -> 'a;
  init_shard : unit -> 'a;
  observe : 'a -> Record.t -> unit;
  merge : 'a -> 'a -> 'a;
}

let instrument obs pool ~chunks =
  Obs.set (Obs.gauge obs ~help:"worker domains in the chunk pool" "par.jobs")
    (float_of_int (Pool.size pool));
  Obs.set_max
    (Obs.gauge obs ~help:"peak queued chunk tasks" "par.queue_depth")
    (float_of_int (Pool.peak_queue pool));
  Obs.add (Obs.counter obs ~help:"chunk tasks executed" "par.tasks") chunks;
  Obs.add (Obs.counter obs ~help:"chunks planned" "par.shards") chunks

let map_chunks ?(obs = Obs.null) ?timeline ?(chunk = 512) pool ~name f items =
  if chunk <= 0 then invalid_arg "Driver.map_chunks: chunk must be positive";
  let n = Array.length items in
  if n = 0 then []
  else begin
    let chunks = (n + chunk - 1) / chunk in
    let times = Array.make chunks 0. in
    let span_name = "par.pass." ^ name in
    (* Worker-private trace buffers, one per task: a worker appends its
       own completed span, the coordinator absorbs them in chunk order
       at join — no cross-domain mutation. *)
    let tbufs =
      match timeline with
      | None -> [||]
      | Some _ -> Array.init chunks (fun _ -> Timeline.buf ())
    in
    let tasks =
      Array.init chunks (fun i () ->
          let off = i * chunk in
          let t0 = Unix.gettimeofday () in
          let r = f (Array.sub items off (min chunk (n - off))) in
          let t1 = Unix.gettimeofday () in
          times.(i) <- t1 -. t0;
          if Array.length tbufs > 0 then Timeline.buf_add tbufs.(i) ~name:span_name ~t0 ~t1;
          r)
    in
    let results = Pool.run_all pool tasks in
    (match timeline with
    | Some tl -> Array.iter (Timeline.absorb tl) tbufs
    | None -> ());
    Array.iter (fun s -> Obs.span_record obs span_name ~seconds:s) times;
    instrument obs pool ~chunks;
    Array.to_list results
  end
