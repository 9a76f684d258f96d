module Record = Nt_trace.Record
module Obs = Nt_obs.Obs

type entry = { at : float; seq : int; record : Record.t }

type t = {
  mutable heap : entry array;
  mutable size : int;
  horizon : float;
  emit : Record.t -> unit;
  mutable max_seen : float;
  mutable next_seq : int;
  c_pushed : Obs.counter;
  c_released : Obs.counter;
  g_occupancy : Obs.gauge;
}

let dummy_record : Record.t =
  {
    time = 0.;
    reply_time = None;
    client = 0;
    server = 0;
    version = 3;
    xid = 0;
    uid = 0;
    gid = 0;
    call = Nt_nfs.Ops.Null;
    result = None;
  }

let dummy = { at = 0.; seq = 0; record = dummy_record }

let create ?obs ?(horizon = 600.) emit =
  (* released feeds test assertions, so the default registry is a
     private enabled one. *)
  let obs = match obs with Some o -> o | None -> Obs.create () in
  {
    heap = Array.make 4096 dummy;
    size = 0;
    horizon;
    emit;
    max_seen = neg_infinity;
    next_seq = 0;
    c_pushed = Obs.counter obs ~help:"records entering the reorder window" "sorter.pushed";
    c_released = Obs.counter obs ~help:"records released in sorted order" "sorter.released";
    g_occupancy = Obs.gauge obs ~help:"peak reorder-window occupancy" "sorter.window_occupancy";
  }

let less a b = a.at < b.at || (a.at = b.at && a.seq < b.seq)

let swap t i j =
  let tmp = t.heap.(i) in
  t.heap.(i) <- t.heap.(j);
  t.heap.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less t.heap.(i) t.heap.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && less t.heap.(l) t.heap.(!smallest) then smallest := l;
  if r < t.size && less t.heap.(r) t.heap.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let pop t =
  let top = t.heap.(0) in
  t.size <- t.size - 1;
  t.heap.(0) <- t.heap.(t.size);
  t.heap.(t.size) <- dummy;
  sift_down t 0;
  top.record

let release_until t threshold =
  while t.size > 0 && t.heap.(0).at <= threshold do
    let r = pop t in
    Obs.inc t.c_released;
    t.emit r
  done

let push t (r : Record.t) =
  if t.size = Array.length t.heap then begin
    let bigger = Array.make (2 * t.size) dummy in
    Array.blit t.heap 0 bigger 0 t.size;
    t.heap <- bigger
  end;
  t.heap.(t.size) <- { at = r.time; seq = t.next_seq; record = r };
  t.next_seq <- t.next_seq + 1;
  t.size <- t.size + 1;
  Obs.inc t.c_pushed;
  Obs.set_max t.g_occupancy (float_of_int t.size);
  sift_up t (t.size - 1);
  if r.time > t.max_seen then t.max_seen <- r.time;
  release_until t (t.max_seen -. t.horizon)

let flush t = release_until t infinity
let released t = Obs.value t.c_released
