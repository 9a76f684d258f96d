(* The batch run analysis the online fold in Nt_analysis.Runs replaced,
   kept as the reference the fold is checked against: sort each file's
   whole access list with the reorder window, split the sorted list into
   runs, classify every run from its accesses, and tally the list of
   runs for Table 3, Figure 2 and Figure 5. *)

module Io_log = Nt_analysis.Io_log
module Runs = Nt_analysis.Runs
module Seqmetric = Nt_analysis.Seqmetric

module Fh_tbl = Hashtbl.Make (struct
  type t = Nt_nfs.Fh.t

  let equal = Nt_nfs.Fh.equal
  let hash = Nt_nfs.Fh.hash
end)

(* The whole trace's accesses, per file, newest first: what the batch
   analysis sorts and splits. *)
type log = Io_log.access list Fh_tbl.t

let log_of_records records : log =
  let log = Fh_tbl.create 64 in
  Array.iter
    (fun r ->
      match Io_log.of_record r with
      | Some (fh, a) ->
          Fh_tbl.replace log fh (a :: Option.value (Fh_tbl.find_opt log fh) ~default:[])
      | None -> ())
    records;
  log

(* Each file's accesses in arrival order. *)
let iter_files (log : log) f = Fh_tbl.iter (fun _ l -> f (Array.of_list (List.rev l))) log

(* The paper's partial sort: for each position, look ahead within the
   temporal window for the smallest-offset access and swap it to the
   front if the current one is out of order. *)
let sort_window w accesses =
  let a = Array.copy accesses in
  let n = Array.length a in
  let swaps = ref 0 in
  if w > 0. then
    for i = 0 to n - 2 do
      let best = ref i in
      let j = ref (i + 1) in
      while !j < n && a.(!j).Io_log.at -. a.(i).Io_log.at <= w do
        if a.(!j).offset < a.(!best).offset then best := !j;
        incr j
      done;
      if !best <> i && a.(!best).offset < a.(i).offset then begin
        let tmp = a.(i) in
        a.(i) <- a.(!best);
        a.(!best) <- tmp;
        incr swaps
      end
    done;
  (a, !swaps)

let split ?(gap = 30.) (accesses : Io_log.access array) =
  let n = Array.length accesses in
  let runs = ref [] in
  let current = ref [] in
  let flush () =
    match !current with
    | [] -> ()
    | items ->
        runs := Array.of_list (List.rev items) :: !runs;
        current := []
  in
  for i = 0 to n - 1 do
    (match !current with
    | last :: _ ->
        (* Rule (a): the previous access referenced EOF. Rule (b): the
           previous access is stale. *)
        if last.Io_log.at_eof || accesses.(i).Io_log.at -. last.Io_log.at > gap then flush ()
    | [] -> ());
    current := accesses.(i) :: !current
  done;
  flush ();
  List.rev !runs

let blocks_of ~block bytes = (bytes + block - 1) / block

let classify ?(block = 8192) ~jump_blocks (run : Io_log.access array) =
  let n = Array.length run in
  assert (n > 0);
  let first = run.(0) in
  let last = run.(n - 1) in
  if n = 1 then
    if first.offset = 0 && first.offset + first.count >= first.file_size then Runs.Entire
    else Runs.Sequential
  else begin
    let sequential = ref true in
    for i = 1 to n - 1 do
      let prev = run.(i - 1) in
      let expected = (prev.offset / block) + blocks_of ~block prev.count in
      let got = run.(i).offset / block in
      if abs (got - expected) >= jump_blocks then sequential := false
    done;
    if !sequential then
      if first.offset / block = 0 && last.offset + last.count >= last.file_size then Runs.Entire
      else Runs.Sequential
    else Runs.Random
  end

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

type run = {
  is_read : bool;
  is_write : bool;
  bytes : int;
  file_size : int;
  pattern : Runs.pattern;
}

let run_of_accesses ~jump_blocks (accesses : Io_log.access array) =
  {
    is_read = Array.exists (fun (a : Io_log.access) -> a.is_read) accesses;
    is_write = Array.exists (fun (a : Io_log.access) -> not a.is_read) accesses;
    bytes = Array.fold_left (fun acc (a : Io_log.access) -> acc + a.count) 0 accesses;
    file_size = Array.fold_left (fun acc (a : Io_log.access) -> max acc a.file_size) 0 accesses;
    pattern = classify ~jump_blocks accesses;
  }

let analyze ?(window = 0.) ?(gap = 30.) ~jump_blocks log =
  let out = ref [] in
  iter_files log (fun accesses ->
      let sorted = if window > 0. then fst (sort_window window accesses) else accesses in
      out := List.rev_append (List.map (run_of_accesses ~jump_blocks) (split ~gap sorted)) !out);
  !out

let swaps ~window log =
  let n = ref 0 in
  iter_files log (fun accesses -> n := !n + snd (sort_window window accesses));
  !n

let table3 runs : Runs.table3 =
  let total = List.length runs in
  let pct num den = if den = 0 then 0. else 100. *. float_of_int num /. float_of_int den in
  let bucket runs : Runs.table3_row =
    let n = List.length runs in
    let share p = pct (List.length (List.filter (fun r -> r.pattern = p) runs)) n in
    { entire_pct = share Entire; sequential_pct = share Sequential; random_pct = share Random }
  in
  let reads = List.filter (fun r -> r.is_read && not r.is_write) runs in
  let writes = List.filter (fun r -> r.is_write && not r.is_read) runs in
  let rws = List.filter (fun r -> r.is_read && r.is_write) runs in
  {
    reads_pct = pct (List.length reads) total;
    writes_pct = pct (List.length writes) total;
    rw_pct = pct (List.length rws) total;
    read = bucket reads;
    write = bucket writes;
    rw = bucket rws;
    total_runs = total;
  }

let cumulative ~grand n src =
  let out = Array.make n 0. in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. src.(i);
    out.(i) <- (if grand = 0. then 0. else 100. *. !acc /. grand)
  done;
  out

let by_file_size runs : Runs.size_curve =
  (* Log2 buckets from 1 KB to 128 MB, as in Figure 2's axis. *)
  let edges = Array.init 18 (fun i -> 1024. *. (2. ** float_of_int i)) in
  let nb = Array.length edges + 1 in
  let totals = Array.make nb 0. in
  let entire = Array.make nb 0. in
  let sequential = Array.make nb 0. in
  let random = Array.make nb 0. in
  let bucket_of size =
    let rec go i = if i >= Array.length edges || size < edges.(i) then i else go (i + 1) in
    go 0
  in
  List.iter
    (fun r ->
      let b = bucket_of (float_of_int r.file_size) in
      let bytes = float_of_int r.bytes in
      totals.(b) <- totals.(b) +. bytes;
      match r.pattern with
      | Entire -> entire.(b) <- entire.(b) +. bytes
      | Sequential -> sequential.(b) <- sequential.(b) +. bytes
      | Random -> random.(b) <- random.(b) +. bytes)
    runs;
  let grand = Array.fold_left ( +. ) 0. totals in
  let n = Array.length edges in
  {
    edges;
    total = cumulative ~grand n totals;
    entire = cumulative ~grand n entire;
    sequential = cumulative ~grand n sequential;
    random = cumulative ~grand n random;
  }

(* Figure 5: average metric per run-size bucket (16 KB – 64 MB) for
   read-only and write-only runs, plus the cumulative run counts. *)
let sequentiality ?(window = 0.01) ?(gap = 30.) log : Seqmetric.curve =
  let edges = Array.init 13 (fun i -> 16384. *. (2. ** float_of_int i)) in
  let nb = Array.length edges in
  let bucket_of bytes =
    let rec go i = if i >= nb - 1 || bytes < edges.(i) then i else go (i + 1) in
    go 0
  in
  let sum_ra = Array.make nb 0. and sum_rs = Array.make nb 0. and n_ra = Array.make nb 0 in
  let sum_wa = Array.make nb 0. and sum_ws = Array.make nb 0. and n_wa = Array.make nb 0 in
  let runs_total = Array.make nb 0 and runs_read = Array.make nb 0 in
  let runs_write = Array.make nb 0 and total_runs = ref 0 in
  iter_files log (fun accesses ->
      let sorted = if window > 0. then fst (sort_window window accesses) else accesses in
      List.iter
        (fun run ->
          let bytes =
            float_of_int (Array.fold_left (fun acc (a : Io_log.access) -> acc + a.count) 0 run)
          in
          let b = bucket_of bytes in
          incr total_runs;
          runs_total.(b) <- runs_total.(b) + 1;
          let allowed = run_metric ~c:10 run and strict = run_metric ~c:1 run in
          if Array.for_all (fun (a : Io_log.access) -> a.is_read) run then begin
            runs_read.(b) <- runs_read.(b) + 1;
            sum_ra.(b) <- sum_ra.(b) +. allowed;
            sum_rs.(b) <- sum_rs.(b) +. strict;
            n_ra.(b) <- n_ra.(b) + 1
          end
          else if Array.for_all (fun (a : Io_log.access) -> not a.is_read) run then begin
            runs_write.(b) <- runs_write.(b) + 1;
            sum_wa.(b) <- sum_wa.(b) +. allowed;
            sum_ws.(b) <- sum_ws.(b) +. strict;
            n_wa.(b) <- n_wa.(b) + 1
          end)
        (split ~gap sorted));
  let avg sums counts =
    Array.mapi (fun i s -> if counts.(i) = 0 then nan else s /. float_of_int counts.(i)) sums
  in
  let cum counts =
    let out = Array.make nb 0. and acc = ref 0 in
    for i = 0 to nb - 1 do
      acc := !acc + counts.(i);
      out.(i) <- 100. *. float_of_int !acc /. float_of_int (max 1 !total_runs)
    done;
    out
  in
  {
    bucket_edges = edges;
    read_allowed = avg sum_ra n_ra;
    read_strict = avg sum_rs n_ra;
    write_allowed = avg sum_wa n_wa;
    write_strict = avg sum_ws n_wa;
    cum_total_runs = cum runs_total;
    cum_read_runs = cum runs_read;
    cum_write_runs = cum runs_write;
  }
