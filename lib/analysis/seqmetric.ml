let run_metric ?(block = 8192) ~c (run : Io_log.access array) =
  let n = Array.length run in
  if n <= 1 then 1.0
  else begin
    let consecutive = ref 0 in
    for i = 1 to n - 1 do
      let prev = run.(i - 1) in
      let expected = (prev.Io_log.offset / block) + ((prev.count + block - 1) / block) in
      let got = run.(i).Io_log.offset / block in
      if abs (got - expected) < c then incr consecutive
    done;
    float_of_int !consecutive /. float_of_int (n - 1)
  end

type curve = {
  bucket_edges : float array;
  read_allowed : float array;
  read_strict : float array;
  write_allowed : float array;
  write_strict : float array;
  cum_total_runs : float array;
  cum_read_runs : float array;
  cum_write_runs : float array;
}

(* Buckets: 16k, 32k, ..., 64M (13 buckets). *)
let edges = Array.init 13 (fun i -> 16384. *. (2. ** float_of_int i))

let bucket_of bytes =
  let rec go i =
    if i >= Array.length edges - 1 || bytes < edges.(i) then i else go (i + 1)
  in
  go 0

type tally = {
  sum_ra : float array;
  n_ra : int array;
  sum_rs : float array;
  sum_wa : float array;
  n_wa : int array;
  sum_ws : float array;
  runs_total : int array;
  runs_read : int array;
  runs_write : int array;
  mutable total_runs : int;
}

let tally () =
  let nb = Array.length edges in
  {
    sum_ra = Array.make nb 0.;
    n_ra = Array.make nb 0;
    sum_rs = Array.make nb 0.;
    sum_wa = Array.make nb 0.;
    n_wa = Array.make nb 0;
    sum_ws = Array.make nb 0.;
    runs_total = Array.make nb 0;
    runs_read = Array.make nb 0;
    runs_write = Array.make nb 0;
    total_runs = 0;
  }

let tally_file ~window t accesses =
  let sorted = if window > 0. then fst (Io_log.sort_window window accesses) else accesses in
  List.iter
    (fun run ->
      let bytes =
        float_of_int (Array.fold_left (fun acc (a : Io_log.access) -> acc + a.count) 0 run)
      in
      let b = bucket_of bytes in
      t.total_runs <- t.total_runs + 1;
      t.runs_total.(b) <- t.runs_total.(b) + 1;
      let is_read = Array.for_all (fun (a : Io_log.access) -> a.is_read) run in
      let is_write = Array.for_all (fun (a : Io_log.access) -> not a.is_read) run in
      let allowed = run_metric ~c:10 run in
      let strict = run_metric ~c:1 run in
      if is_read then begin
        t.runs_read.(b) <- t.runs_read.(b) + 1;
        t.sum_ra.(b) <- t.sum_ra.(b) +. allowed;
        t.sum_rs.(b) <- t.sum_rs.(b) +. strict;
        t.n_ra.(b) <- t.n_ra.(b) + 1
      end
      else if is_write then begin
        t.runs_write.(b) <- t.runs_write.(b) + 1;
        t.sum_wa.(b) <- t.sum_wa.(b) +. allowed;
        t.sum_ws.(b) <- t.sum_ws.(b) +. strict;
        t.n_wa.(b) <- t.n_wa.(b) + 1
      end)
    (Runs.split sorted)

let curve_of_tally t =
  let nb = Array.length edges in
  let avg sums counts =
    Array.mapi (fun i s -> if counts.(i) = 0 then nan else s /. float_of_int counts.(i)) sums
  in
  let cumulative counts =
    let out = Array.make nb 0. in
    let acc = ref 0 in
    let total = float_of_int (max 1 t.total_runs) in
    for i = 0 to nb - 1 do
      acc := !acc + counts.(i);
      out.(i) <- 100. *. float_of_int !acc /. total
    done;
    out
  in
  {
    bucket_edges = edges;
    read_allowed = avg t.sum_ra t.n_ra;
    read_strict = avg t.sum_rs t.n_ra;
    write_allowed = avg t.sum_wa t.n_wa;
    write_strict = avg t.sum_ws t.n_wa;
    cum_total_runs = cumulative t.runs_total;
    cum_read_runs = cumulative t.runs_read;
    cum_write_runs = cumulative t.runs_write;
  }

let analyze ?(window = 0.01) log =
  let t = tally () in
  Io_log.iter_files log (fun _ accesses -> tally_file ~window t accesses);
  curve_of_tally t
