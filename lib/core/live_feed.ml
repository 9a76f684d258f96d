module Engine = Nt_sim.Engine
module Record_sorter = Nt_sim.Record_sorter
module Obs = Nt_obs.Obs

type workload = Pipeline.system = Campus | Eecs

type state = {
  engine : Engine.t;
  sorter : Record_sorter.t;
  queue : Nt_trace.Record.t Queue.t;
  stop : float;
  slice_s : float;
  speedup : float option;
  wall_anchor : float;  (* wall clock when pacing started *)
  sim_anchor : float;  (* sim clock at the same instant *)
  mutable flushed : bool;
}

(* With pacing, the simulation may only advance to the sim-time the
   wall clock has "earned" since the anchor. *)
let allowed_horizon st =
  match st.speedup with
  | None -> st.stop
  | Some k -> Float.min st.stop (st.sim_anchor +. ((Unix.gettimeofday () -. st.wall_anchor) *. k))

let pull st () =
  if not (Queue.is_empty st.queue) then `Record (Queue.pop st.queue)
  else if st.flushed then `Closed
  else begin
    let now = Engine.now st.engine in
    if now >= st.stop then begin
      Record_sorter.flush st.sorter;
      st.flushed <- true;
      if Queue.is_empty st.queue then `Closed else `Record (Queue.pop st.queue)
    end
    else begin
      let horizon = allowed_horizon st in
      if horizon <= now then `Idle
      else begin
        (* Advance in bounded slices until something comes out, the
           pacing horizon is reached, or the interval ends. *)
        let cursor = ref now in
        while Queue.is_empty st.queue && !cursor < horizon do
          cursor := Float.min horizon (!cursor +. st.slice_s);
          Engine.run_until st.engine !cursor
        done;
        if not (Queue.is_empty st.queue) then `Record (Queue.pop st.queue)
        else if !cursor >= st.stop then begin
          Record_sorter.flush st.sorter;
          st.flushed <- true;
          if Queue.is_empty st.queue then `Closed else `Record (Queue.pop st.queue)
        end
        else `Idle
      end
    end
  end

let create ?obs ?email ?research ?(slice_s = 1.0) ?speedup ~workload ~start ~stop () =
  if stop <= start then invalid_arg "Live_feed.create: stop <= start";
  if slice_s <= 0. then invalid_arg "Live_feed.create: slice_s <= 0";
  let obs = match obs with Some o -> o | None -> Obs.null in
  let queue = Queue.create () in
  let c_records = Obs.counter obs ~help:"records released by the live sim feed" "pipeline.records" in
  let { Pipeline.engine; sorter; counts = _ } =
    Pipeline.wire ~obs ?email ?research workload ~start ~stop (fun r ->
        Obs.inc c_records;
        Queue.push r queue)
  in
  let st =
    {
      engine;
      sorter;
      queue;
      stop;
      slice_s;
      speedup;
      wall_anchor = Unix.gettimeofday ();
      sim_anchor = start;
      flushed = false;
    }
  in
  Nt_mon.Feed.of_fn (pull st)
