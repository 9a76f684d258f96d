module A = Nt_analysis
module Tw = Nt_util.Trace_week

type 'a shards = {
  init_shard : unit -> 'a;
  merge : 'a -> 'a -> 'a;
  stitched : 'a -> bool;
}

type 'a pass = {
  name : string;
  init : unit -> 'a;
  observe : 'a -> Nt_trace.Record.t -> unit;
  finish : 'a -> unit;
  shards : 'a shards option;
}

let always _ = true

let summary =
  {
    name = "summary";
    init = A.Summary.create;
    observe = A.Summary.observe;
    finish = ignore;
    shards = Some { init_shard = A.Summary.create; merge = A.Summary.merge; stitched = always };
  }

let hourly =
  {
    name = "hourly";
    init = A.Hourly.create;
    observe = A.Hourly.observe;
    finish = ignore;
    shards = Some { init_shard = A.Hourly.create; merge = A.Hourly.merge; stitched = always };
  }

let names =
  {
    name = "names";
    init = A.Names.create;
    observe = A.Names.observe;
    finish = ignore;
    shards = Some { init_shard = A.Names.create_shard; merge = A.Names.merge; stitched = always };
  }

let runs_named name ?window () =
  {
    name;
    init = (fun () -> A.Runs.create ?window ());
    observe = A.Runs.observe;
    finish = A.Runs.finish;
    shards =
      Some
        {
          init_shard = (fun () -> A.Runs.create_shard ?window ());
          merge = A.Runs.merge;
          stitched = A.Runs.stitched;
        };
  }

let runs ?window () = runs_named "runs" ?window ()
let raw_runs = runs_named "rawruns" ~window:0. ()

let reorder =
  {
    name = "reorder";
    init = A.Reorder.create;
    observe = A.Reorder.observe;
    finish = A.Reorder.finish;
    shards =
      Some
        {
          init_shard = A.Reorder.create_shard;
          merge = A.Reorder.merge;
          stitched = A.Reorder.stitched;
        };
  }

type phases = {
  days : (Tw.day * A.Lifetime.t) list;
  span : float array;  (** earliest and latest record time *)
}

let phase day = A.Lifetime.config ~phase1_start:(Tw.time_of ~day ~hour:9 ~minute:0)

let lifetime =
  {
    name = "lifetime";
    init =
      (fun () ->
        {
          days =
            List.map (fun day -> (day, A.Lifetime.create (phase day))) Tw.[ Mon; Tue; Wed; Thu; Fri ];
          span = [| infinity; neg_infinity |];
        });
    observe =
      (fun p r ->
        let t = r.Nt_trace.Record.time in
        if t < p.span.(0) then p.span.(0) <- t;
        if t > p.span.(1) then p.span.(1) <- t;
        List.iter (fun (_, lt) -> A.Lifetime.observe lt r) p.days);
    finish = ignore;
    shards = None;
  }
[@@nt.raise_ok "Lifetime.create asserts its constant histogram edges ascend"]

let covered p =
  List.filter_map
    (fun (day, lt) ->
      let c = phase day in
      if p.span.(0) <= c.phase1_start && p.span.(1) >= c.phase1_start +. c.phase1_len +. c.phase2_len
      then Some (day, A.Lifetime.result lt)
      else None)
    p.days
[@@nt.raise_ok "Lifetime.result asserts its constant histogram edges ascend"]
