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

let io_log =
  {
    name = "io_log";
    init = A.Io_log.create;
    init_shard = A.Io_log.create;
    observe = A.Io_log.observe;
    merge = A.Io_log.merge;
  }

let names =
  {
    name = "names";
    init = A.Names.create;
    init_shard = A.Names.create_shard;
    observe = A.Names.observe;
    merge = A.Names.merge;
  }

let runs ?(window = 0.01) ?(gap = 30.) ~jump_blocks log =
  List.concat_map
    (fun (_, accesses) -> A.Runs.analyze_file ~window ~gap ~jump_blocks accesses)
    (Array.to_list (A.Io_log.sorted_files log))
