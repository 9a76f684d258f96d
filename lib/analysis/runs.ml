module Fh = Nt_nfs.Fh

type pattern = Entire | Sequential | Random

let pattern_to_string = function
  | Entire -> "entire"
  | Sequential -> "sequential"
  | Random -> "random"

let block = 8192

(* The block just past where an access ends. *)
let end_block ~offset ~count = (offset / block) + ((count + block - 1) / block)

(* The open run, summarised: what classifying it and tallying it for
   Table 3 and Figures 2 and 5 need, and nothing that grows with it.
   Of its last access it keeps only what the split rule and the
   c-consecutive test of the next one read. *)
type run = {
  block0 : bool;  (** the first access starts in block 0 *)
  whole : bool;  (** the first access spans the whole file *)
  last_at : float array;
      (** one element, unboxed: an update allocates nothing and needs no
          write barrier *)
  mutable last_end : int;  (** {!end_block} of the last access *)
  mutable last_to_eof : bool;  (** the last access reaches the file size *)
  mutable n : int;
  mutable bytes : int;
  mutable size : int;  (** largest file size seen *)
  mutable reads : bool;
  mutable writes : bool;
  mutable strict : int;  (** 1-consecutive successive pairs *)
  mutable allowed : int;  (** 10-consecutive successive pairs *)
}

let start ~at ~offset ~count ~is_read ~size =
  {
    block0 = offset / block = 0;
    whole = offset = 0 && offset + count >= size;
    last_at = [| at |];
    last_end = end_block ~offset ~count;
    last_to_eof = offset + count >= size;
    n = 1;
    bytes = count;
    size = Int.max 0 size;
    reads = is_read;
    writes = not is_read;
    strict = 0;
    allowed = 0;
  }

(* [r] takes in [h], the run that continues it from an access at
   [offset] on; the pair they meet at counts when c-consecutive. *)
let join r h ~offset =
  let j = abs ((offset / block) - r.last_end) in
  r.strict <- r.strict + h.strict + Bool.to_int (j < 1);
  r.allowed <- r.allowed + h.allowed + Bool.to_int (j < 10);
  r.last_at.(0) <- h.last_at.(0);
  r.last_end <- h.last_end;
  r.last_to_eof <- h.last_to_eof;
  r.n <- r.n + h.n;
  r.bytes <- r.bytes + h.bytes;
  r.size <- Int.max r.size h.size;
  r.reads <- r.reads || h.reads;
  r.writes <- r.writes || h.writes

let extend r ~at ~offset ~count ~is_read ~size =
  let j = abs ((offset / block) - r.last_end) in
  if j < 1 then r.strict <- r.strict + 1;
  if j < 10 then r.allowed <- r.allowed + 1;
  r.last_at.(0) <- at;
  r.last_end <- end_block ~offset ~count;
  r.last_to_eof <- offset + count >= size;
  r.n <- r.n + 1;
  r.bytes <- r.bytes + count;
  r.size <- Int.max r.size size;
  if is_read then r.reads <- true else r.writes <- true

(* Singleton runs are entire when they span the whole file and
   sequential otherwise; longer runs are sequential when every pair is
   c-consecutive, and entire when they also run from block 0 to EOF. *)
let pattern ~consecutive r =
  if r.n = 1 then if r.whole then Entire else Sequential
  else if consecutive = r.n - 1 then
    if r.block0 && r.last_to_eof then Entire else Sequential
  else Random

let pattern_index = function Entire -> 0 | Sequential -> 1 | Random -> 2

(* Figure 2's axis: log2 buckets from 1 KB to 128 MB. *)
let size_edges = Array.init 18 (fun i -> 1024. *. (2. ** float_of_int i))

let size_bucket size =
  let i = ref 0 in
  while !i < Array.length size_edges && not (size < size_edges.(!i)) do
    incr i
  done;
  !i

(* What the closed runs add up to. [patterns] counts runs by rule
   (strict, then 10-block), kind (read-only, write-only, read-write)
   and pattern; [size_bytes] sums bytes by file-size bucket and
   10-block pattern. *)
type tally = { patterns : int array; size_bytes : int array; seq : Seqmetric.tally }

let tally () =
  {
    patterns = Array.make 18 0;
    size_bytes = Array.make ((Array.length size_edges + 1) * 3) 0;
    seq = Seqmetric.tally ();
  }

let count tl r =
  let kind = if not r.writes then 0 else if not r.reads then 1 else 2 in
  let strict = pattern_index (pattern ~consecutive:r.strict r) in
  let allowed = pattern_index (pattern ~consecutive:r.allowed r) in
  tl.patterns.((kind * 3) + strict) <- tl.patterns.((kind * 3) + strict) + 1;
  tl.patterns.(9 + (kind * 3) + allowed) <- tl.patterns.(9 + (kind * 3) + allowed) + 1;
  let b = (size_bucket (float_of_int r.size) * 3) + allowed in
  tl.size_bytes.(b) <- tl.size_bytes.(b) + r.bytes;
  Seqmetric.add_run tl.seq ~bytes:r.bytes ~reads:r.reads ~writes:r.writes ~pairs:(r.n - 1)
    ~allowed:r.allowed ~strict:r.strict

(* A shard file's first run, the one that may continue an earlier
   range's open run: not started yet, still open, or closed but not
   counted until the merge decides. *)
type head = Unseen | Open | Closed of run

(* What a shard keeps for the merge. Until the cut, a file's accesses
   are only held: the window step of the earlier range may still reach
   them. The cut is the first access more than the window later than
   every held one (and past the horizon below), so no window step of an
   earlier access crosses it, and the shard folds from it on.
   [first_at] and [first_offset] are of the shard's first sorted access,
   the one its head run starts with. *)
type edge = {
  mutable held : Io_log.access list;  (** newest first *)
  mutable latest : float;  (** latest time among [held] *)
  mutable cut : bool;
  mutable cut_at : float;
  mutable head : head;
  mutable first_at : float;
  mutable first_offset : int;
}

(* A file's pending window, in arrival order after the steps so far:
   access [i] of it has time [wt.(w0 + i)] and offset, count, file size
   and flags at [wi.(4 * (w0 + i)) ..]. Unboxed, so a pending access
   keeps no record alive. Its head has no access in the window more
   than the window later than itself, else it would have taken its
   step. [top.(0)] bounds the window's times from above (infinity once
   a time is nan, which stops every step), so a head with no time
   beyond [top.(0) - window] needs no scan to know it must wait. *)
type file = {
  mutable wt : float array;
  mutable wi : int array;
  mutable w0 : int;
  mutable wn : int;
  top : float array;
  mutable run : run option;  (** the open run *)
  edge : edge option;  (** shard files only *)
}

module Fh_tbl = Hashtbl.Make (struct
  type t = Fh.t

  let equal = Fh.equal
  let hash = Fh.hash
end)

type t = {
  window : float;
  shard : bool;
  files : file Fh_tbl.t;
  tally : tally;
  mutable start : float;  (** a shard's first access time *)
  mutable swaps : int;
  mutable stitched : bool;
}

let make ~shard ~window =
  {
    window;
    shard;
    files = Fh_tbl.create 256;
    tally = tally ();
    start = nan;
    swaps = 0;
    stitched = true;
  }

(* The paper's reorder window for CAMPUS, and nfsstats'. *)
let default_window = 0.01

let create ?(window = default_window) () = make ~shard:false ~window
let create_shard ?(window = default_window) () = make ~shard:true ~window

let new_file t =
  let edge =
    if t.shard then
      Some
        {
          held = [];
          latest = neg_infinity;
          cut = false;
          cut_at = nan;
          head = Unseen;
          first_at = nan;
          first_offset = 0;
        }
    else None
  in
  { wt = [||]; wi = [||]; w0 = 0; wn = 0; top = [| neg_infinity |]; run = None; edge }

let file t fh =
  match Fh_tbl.find_opt t.files fh with
  | Some f -> f
  | None ->
      let f = new_file t in
      Fh_tbl.add t.files fh f;
      f
[@@nt.unbounded "one entry per distinct file handle: a pending window and an open run"]

let close t f r =
  match f.edge with
  | Some ({ head = Open; _ } as e) -> e.head <- Closed r
  | _ -> count t.tally r

(* The split rule: a run ends when its last access referenced EOF or
   the next one comes more than [gap] (30 s) later. An EOF access
   closes its run at once, since nothing can continue it. *)
let gap = 30.

let emit t f ~at ~offset ~count ~is_read ~eof ~size =
  (match f.run with
  | Some r when not (at -. r.last_at.(0) > gap) -> extend r ~at ~offset ~count ~is_read ~size
  | prev ->
      Option.iter (close t f) prev;
      (match f.edge with
      | Some ({ head = Unseen; _ } as e) ->
          e.head <- Open;
          e.first_at <- at;
          e.first_offset <- offset
      | _ -> ());
      f.run <- Some (start ~at ~offset ~count ~is_read ~size));
  if eof then
    match f.run with
    | Some r ->
        close t f r;
        f.run <- None
    | None -> ()

(* Room for [cap] accesses (at least 4), the pending ones first. A
   window that runs out of room while at least half full, or falls to
   an eighth full, resizes to about twice its pending count, so it
   stays within a small factor of what it holds. *)
let resize f cap =
  let cap = max 4 cap in
  let wt = Array.make cap 0. and wi = Array.make (4 * cap) 0 in
  Array.blit f.wt f.w0 wt 0 f.wn;
  Array.blit f.wi (4 * f.w0) wi 0 (4 * f.wn);
  f.wt <- wt;
  f.wi <- wi;
  f.w0 <- 0

let read_flag = 1
let eof_flag = 2

let swap f i j =
  let t = f.wt.(i) in
  f.wt.(i) <- f.wt.(j);
  f.wt.(j) <- t;
  for k = 0 to 3 do
    let v = f.wi.((4 * i) + k) in
    f.wi.((4 * i) + k) <- f.wi.((4 * j) + k);
    f.wi.((4 * j) + k) <- v
  done

(* The paper's window step for the head: among the accesses before the
   first one more than [window] later than the head, the one with the
   smallest offset, if smaller than the head's, swaps into its place.
   Returns whether the scan met such an access, or [final] says no
   more will come. *)
let step t f ~final =
  let h = f.w0 and stop = f.w0 + f.wn in
  let at = f.wt.(h) in
  let best = ref h and j = ref (h + 1) in
  while !j < stop && f.wt.(!j) -. at <= t.window do
    if f.wi.(4 * !j) < f.wi.(4 * !best) then best := !j;
    incr j
  done;
  let ready = !j < stop || final in
  if ready then begin
    if !best <> h && f.wi.(4 * !best) < f.wi.(4 * h) then begin
      swap f h !best;
      t.swaps <- t.swaps + 1
    end;
    let at = f.wt.(h) and flags = f.wi.((4 * h) + 3) in
    let offset = f.wi.(4 * h) and count = f.wi.((4 * h) + 1) and size = f.wi.((4 * h) + 2) in
    f.w0 <- h + 1;
    f.wn <- f.wn - 1;
    if f.wn = 0 then begin
      f.wt <- [||];
      f.wi <- [||];
      f.w0 <- 0;
      f.top.(0) <- neg_infinity
    end
    else if 8 * f.wn <= Array.length f.wt then resize f (2 * f.wn);
    emit t f ~at ~offset ~count ~is_read:(flags land read_flag <> 0)
      ~eof:(flags land eof_flag <> 0) ~size
  end;
  ready

let drain t f =
  while f.wn > 0 do
    ignore (step t f ~final:true : bool)
  done

let append f (a : Io_log.access) =
  let cap = Array.length f.wt in
  if f.w0 + f.wn = cap then
    if 2 * f.wn >= cap then resize f (2 * (f.wn + 1))
    else begin
      Array.blit f.wt f.w0 f.wt 0 f.wn;
      Array.blit f.wi (4 * f.w0) f.wi 0 (4 * f.wn);
      f.w0 <- 0
    end;
  let i = f.w0 + f.wn in
  f.wt.(i) <- a.at;
  if not (a.at <= f.top.(0)) then f.top.(0) <- (if Float.is_nan a.at then infinity else a.at);
  f.wi.(4 * i) <- a.offset;
  f.wi.((4 * i) + 1) <- a.count;
  f.wi.((4 * i) + 2) <- a.file_size;
  f.wi.((4 * i) + 3) <-
    (if a.is_read then read_flag else 0) lor if a.at_eof then eof_flag else 0;
  f.wn <- f.wn + 1

(* Only [a] can be the head's stopper: before it came, the head had
   none. Each step makes a new head, which may find its stopper among
   the accesses already pending. *)
let push t f (a : Io_log.access) =
  if not (t.window > 0.) then
    emit t f ~at:a.at ~offset:a.offset ~count:a.count ~is_read:a.is_read ~eof:a.at_eof
      ~size:a.file_size
  else begin
    append f a;
    if f.wn > 1 && not (a.at -. f.wt.(f.w0) <= t.window) then
      while f.wn > 0 && (not (f.top.(0) -. f.wt.(f.w0) <= t.window)) && step t f ~final:false do
        ()
      done
  end

(* How far an earlier range's access may run ahead of a shard's first
   one. nfstrace writes a record when its reply comes, or when the call
   expires unanswered after 60 s, so its output is out of time order by
   less than that; a shard that cuts no sooner stitches to it. *)
let horizon = 60.

let add t fh (a : Io_log.access) =
  let f = file t fh in
  match f.edge with
  | Some e when not e.cut ->
      if Float.is_nan t.start then t.start <- a.at;
      let cuts =
        match e.held with
        | [] -> not (t.window > 0.)
        | _ :: _ -> a.at -. e.latest > t.window && a.at -. t.start > horizon
      in
      if cuts then begin
        e.cut <- true;
        e.cut_at <- a.at;
        push t f a
      end
      else begin
        e.held <- a :: e.held;
        if a.at > e.latest then e.latest <- a.at
      end
  | _ -> push t f a
[@@nt.unbounded
  "a shard holds each file's accesses of its first minute, until the merge replays them"]
[@@nt.alloc_ok "a held access is kept until the merge replays it"]

let observe t r = match Io_log.of_record r with Some (fh, a) -> add t fh a | None -> ()

let finish t =
  Fh_tbl.filter_map_inplace
    (fun _ f ->
      drain t f;
      Option.iter (close t f) f.run;
      None)
    t.files

(* The cut is clear of [f]'s window when it is more than the window
   later than every pending access: then it stops every pending
   access's window step, as it stopped none in the shard it opened. *)
let clear_of t f ~cut_at =
  let ok = ref true in
  for i = f.w0 to f.w0 + f.wn - 1 do
    if not (cut_at -. f.wt.(i) > t.window) then ok := false
  done;
  !ok

(* One shard file into the merged state: replay the held accesses, then,
   if the shard cut, drain the window (the cut stops every pending
   step), settle the seam between the open run and the shard's head run
   by the split rule, and adopt the shard's window and open run. *)
let merge_file a af (bf : file) e =
  List.iter (push a af) (List.rev e.held);
  if e.cut then begin
    if not (clear_of a af ~cut_at:e.cut_at) then a.stitched <- false;
    drain a af;
    let head =
      match (e.head, bf.run) with
      | Closed h, _ -> Some (h, true)
      | Open, Some h -> Some (h, false)
      | Open, None | Unseen, _ -> None
    in
    Option.iter
      (fun (h, closed) ->
        match af.run with
        | Some r when not (e.first_at -. r.last_at.(0) > gap) ->
            join r h ~offset:e.first_offset;
            if closed then begin
              count a.tally r;
              af.run <- bf.run
            end
        | prev ->
            Option.iter (count a.tally) prev;
            if closed then count a.tally h;
            af.run <- bf.run)
      head;
    af.wt <- bf.wt;
    af.wi <- bf.wi;
    af.w0 <- bf.w0;
    af.wn <- bf.wn;
    af.top.(0) <- bf.top.(0)
  end

let merge a b =
  if a.shard then invalid_arg "Runs.merge: left accumulator must be a root (or merged) one";
  Fh_tbl.iter
    (fun fh (bf : file) ->
      match bf.edge with
      | Some e -> merge_file a (file a fh) bf e
      | None -> invalid_arg "Runs.merge: right accumulator must be a shard")
    b.files;
  a.swaps <- a.swaps + b.swaps;
  a.stitched <- a.stitched && b.stitched;
  Array.iteri (fun i v -> a.tally.patterns.(i) <- a.tally.patterns.(i) + v) b.tally.patterns;
  Array.iteri (fun i v -> a.tally.size_bytes.(i) <- a.tally.size_bytes.(i) + v) b.tally.size_bytes;
  Seqmetric.add_tally a.tally.seq b.tally.seq;
  a
[@@nt.raise_ok "a shard on the left, or a root on the right, is a programming error"]

let stitched t = t.stitched
let swaps t = t.swaps

let footprint t =
  (* per file: table bucket, handle and file record; per open run its
     summary; per window slot five words; per held access its record
     and list cell *)
  let words =
    Fh_tbl.fold
      (fun _ f acc ->
        let run = match f.run with Some _ -> 17 | None -> 0 in
        let edge = match f.edge with Some e -> 8 + (List.length e.held * 12) | None -> 0 in
        acc + 16 + (5 * Array.length f.wt) + run + edge)
      t.files 0
  in
  Nt_obs.Footprint.v ~cards:(Fh_tbl.length t.files) ~words:(64 + words)

type table3_row = { entire_pct : float; sequential_pct : float; random_pct : float }

type table3 = {
  reads_pct : float;
  writes_pct : float;
  rw_pct : float;
  read : table3_row;
  write : table3_row;
  rw : table3_row;
  total_runs : int;
}

let table3 ?(strict = false) t =
  let p = t.tally.patterns and base = if strict then 0 else 9 in
  let pct num den = if den = 0 then 0. else 100. *. float_of_int num /. float_of_int den in
  let kind k = p.(base + (k * 3)) + p.(base + (k * 3) + 1) + p.(base + (k * 3) + 2) in
  let total = kind 0 + kind 1 + kind 2 in
  let row k =
    let n = kind k in
    {
      entire_pct = pct p.(base + (k * 3)) n;
      sequential_pct = pct p.(base + (k * 3) + 1) n;
      random_pct = pct p.(base + (k * 3) + 2) n;
    }
  in
  {
    reads_pct = pct (kind 0) total;
    writes_pct = pct (kind 1) total;
    rw_pct = pct (kind 2) total;
    read = row 0;
    write = row 1;
    rw = row 2;
    total_runs = total;
  }

type size_curve = {
  edges : float array;
  total : float array;
  entire : float array;
  sequential : float array;
  random : float array;
}

let by_file_size t =
  let bytes = t.tally.size_bytes in
  let nb = Array.length size_edges in
  let of_pattern p = Array.init (nb + 1) (fun b -> float_of_int bytes.((b * 3) + p)) in
  let entire = of_pattern 0 and sequential = of_pattern 1 and random = of_pattern 2 in
  let totals = Array.init (nb + 1) (fun b -> entire.(b) +. sequential.(b) +. random.(b)) in
  let grand = Array.fold_left ( +. ) 0. totals in
  let cumulative src =
    let out = Array.make nb 0. in
    let acc = ref 0. in
    for i = 0 to nb - 1 do
      acc := !acc +. src.(i);
      out.(i) <- (if grand = 0. then 0. else 100. *. !acc /. grand)
    done;
    out
  in
  {
    edges = size_edges;
    total = cumulative totals;
    entire = cumulative entire;
    sequential = cumulative sequential;
    random = cumulative random;
  }

let sequentiality t = Seqmetric.curve t.tally.seq
