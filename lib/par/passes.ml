module A = Nt_analysis

type 'a pass = {
  name : string;
  init : unit -> 'a;
  init_shard : unit -> 'a;
  observe : 'a -> Nt_trace.Record.t -> unit;
  merge : 'a -> 'a -> 'a;
}

let summary =
  {
    name = "summary";
    init = A.Summary.create;
    init_shard = A.Summary.create;
    observe = A.Summary.observe;
    merge = A.Summary.merge;
  }

let hourly =
  {
    name = "hourly";
    init = A.Hourly.create;
    init_shard = A.Hourly.create;
    observe = A.Hourly.observe;
    merge = A.Hourly.merge;
  }

let names =
  {
    name = "names";
    init = A.Names.create;
    init_shard = A.Names.create_shard;
    observe = A.Names.observe;
    merge = A.Names.merge;
  }

let online_runs =
  {
    name = "runs";
    init = (fun () -> A.Runs.create ());
    init_shard = A.Runs.create_shard;
    observe = A.Runs.observe;
    merge = A.Runs.merge;
  }
