module Prng = Nt_util.Prng

type policy = No_readahead | Fragile | Metric

let policy_name = function
  | No_readahead -> "no-readahead"
  | Fragile -> "fragile"
  | Metric -> "seq-metric"

type outcome = {
  total_time : float;
  disk_time : float;
  requests : int;
  reordered : int;
}

(* Perturb the ascending block order the way nfsiod scheduling does:
   displaced requests move a few positions. *)
let perturb rng ~reorder_fraction ~window blocks =
  let a = Array.copy blocks in
  let n = Array.length a in
  for i = 0 to n - 2 do
    if Prng.chance rng reorder_fraction then begin
      let j = min (n - 1) (i + 1 + Prng.int rng window) in
      let tmp = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- tmp
    end
  done;
  a

type state = {
  mutable expected : int;  (** block just past the previous request *)
  mutable last_block : int;
  mutable sequential : bool;  (** the last request started at [expected] *)
  history : bool Queue.t;  (** was each recent request c-consecutive? *)
  mutable consecutive : int;  (** [true]s in [history] *)
}

let c = 10
let history_len = 32
let prefetch_depth = 8

let state () =
  { expected = 0; last_block = -1; sequential = true; history = Queue.create (); consecutive = 0 }

let observe st ~block ~nblocks =
  if st.last_block >= 0 then begin
    let is_c_consecutive = abs (block - st.last_block) <= c in
    Queue.push is_c_consecutive st.history;
    if is_c_consecutive then st.consecutive <- st.consecutive + 1;
    if Queue.length st.history > history_len then
      if Queue.pop st.history then st.consecutive <- st.consecutive - 1
  end;
  st.sequential <- block = st.expected;
  st.expected <- block + nblocks;
  st.last_block <- block

let prefetch policy st =
  match policy with
  | No_readahead -> false
  | Fragile -> st.sequential
  | Metric ->
      Queue.length st.history = 0
      || float_of_int st.consecutive /. float_of_int (Queue.length st.history) >= 0.75

let run ?(seed = 42L) ?(file_blocks = 2048) ?(reorder_fraction = 0.1) ?(window = 3) policy =
  let rng = Prng.create seed in
  let order = perturb rng ~reorder_fraction ~window (Array.init file_blocks (fun i -> i)) in
  let disk = Disk.create () in
  let total = ref 0. in
  let reordered = ref 0 in
  (* Per-request network + protocol overhead, identical across
     policies; only disk behaviour differs. *)
  let per_request_overhead = 0.0002 in
  let st = state () in
  let last_block = ref (-1) in
  Array.iter
    (fun block ->
      if block < !last_block then incr reordered;
      last_block := block;
      observe st ~block ~nblocks:1;
      let service = Disk.read disk ~block ~nblocks:1 in
      (* Prefetch overlaps with returning the current block: the
         client pays only the current read; later hits are free. *)
      if prefetch policy st then
        ignore (Disk.prefetch disk ~block:(block + 1) ~nblocks:prefetch_depth : float);
      total := !total +. service +. per_request_overhead)
    order;
  {
    total_time = !total;
    disk_time = Disk.busy_time disk;
    requests = file_blocks;
    reordered = !reordered;
  }

let speedup ~baseline outcome =
  100. *. (baseline.total_time -. outcome.total_time) /. baseline.total_time
