let metric ~pairs ~consecutive =
  if pairs = 0 then 1.0 else float_of_int consecutive /. float_of_int pairs

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
  let i = ref 0 in
  while !i < Array.length edges - 1 && not (bytes < edges.(!i)) do
    incr i
  done;
  !i

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

let add_run t ~bytes ~reads ~writes ~pairs ~allowed ~strict =
  let b = bucket_of (float_of_int bytes) in
  t.total_runs <- t.total_runs + 1;
  t.runs_total.(b) <- t.runs_total.(b) + 1;
  let allowed = metric ~pairs ~consecutive:allowed in
  let strict = metric ~pairs ~consecutive:strict in
  if not writes then begin
    t.runs_read.(b) <- t.runs_read.(b) + 1;
    t.sum_ra.(b) <- t.sum_ra.(b) +. allowed;
    t.sum_rs.(b) <- t.sum_rs.(b) +. strict;
    t.n_ra.(b) <- t.n_ra.(b) + 1
  end
  else if not reads then begin
    t.runs_write.(b) <- t.runs_write.(b) + 1;
    t.sum_wa.(b) <- t.sum_wa.(b) +. allowed;
    t.sum_ws.(b) <- t.sum_ws.(b) +. strict;
    t.n_wa.(b) <- t.n_wa.(b) + 1
  end

let add_tally a b =
  let addf dst src = Array.iteri (fun i v -> dst.(i) <- dst.(i) +. v) src in
  let addi dst src = Array.iteri (fun i v -> dst.(i) <- dst.(i) + v) src in
  addf a.sum_ra b.sum_ra;
  addi a.n_ra b.n_ra;
  addf a.sum_rs b.sum_rs;
  addf a.sum_wa b.sum_wa;
  addi a.n_wa b.n_wa;
  addf a.sum_ws b.sum_ws;
  addi a.runs_total b.runs_total;
  addi a.runs_read b.runs_read;
  addi a.runs_write b.runs_write;
  a.total_runs <- a.total_runs + b.total_runs

let curve t =
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
