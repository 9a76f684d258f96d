module A = Nt_analysis

let summary =
  {
    Driver.name = "summary";
    init = A.Summary.create;
    init_shard = A.Summary.create;
    observe = A.Summary.observe;
    merge = A.Summary.merge;
  }

let hourly =
  {
    Driver.name = "hourly";
    init = A.Hourly.create;
    init_shard = A.Hourly.create;
    observe = A.Hourly.observe;
    merge = A.Hourly.merge;
  }

let io_log =
  {
    Driver.name = "io_log";
    init = A.Io_log.create;
    init_shard = A.Io_log.create;
    observe = A.Io_log.observe;
    merge = A.Io_log.merge;
  }

let names =
  {
    Driver.name = "names";
    init = A.Names.create;
    init_shard = A.Names.create_shard;
    observe = A.Names.observe;
    merge = A.Names.merge;
  }

let runs ?obs ?timeline ?(window = 0.01) ?(gap = 30.) ?chunk ~jump_blocks pool log =
  let files = A.Io_log.sorted_files log in
  let per_chunk =
    Driver.map_chunks ?obs ?timeline ?chunk pool ~name:"runs"
      (fun chunk_files ->
        List.concat_map
          (fun (_, accesses) -> A.Runs.analyze_file ~window ~gap ~jump_blocks accesses)
          (Array.to_list chunk_files))
      files
  in
  List.concat per_chunk
