type t = { edges : float array; weights : float array }

let create ~edges =
  let ok = ref true in
  for i = 1 to Array.length edges - 1 do
    if edges.(i) <= edges.(i - 1) then ok := false
  done;
  assert !ok;
  { edges; weights = Array.make (Array.length edges + 1) 0. }

let log2_buckets ~lo ~hi =
  assert (lo > 0. && hi > lo);
  let rec collect acc v = if v > hi *. 1.0001 then List.rev acc else collect (v :: acc) (v *. 2.) in
  create ~edges:(Array.of_list (collect [] lo))

(* First bucket whose edge exceeds x; edges.(i) is the exclusive upper
   bound of bucket i.  Top-level so the per-sample path allocates no
   closure. *)
let rec search edges x lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if x >= edges.(mid) then search edges x (mid + 1) hi else search edges x lo mid

let bucket_of t x = search t.edges x 0 (Array.length t.edges)

let add_weighted t x w = t.weights.(bucket_of t x) <- t.weights.(bucket_of t x) +. w
let add t x = add_weighted t x 1.
let edges t = t.edges
let weight t i = t.weights.(i)
let total_weight t = Array.fold_left ( +. ) 0. t.weights

let cdf t =
  let total = total_weight t in
  let acc = ref 0. in
  let out = ref [] in
  for i = 0 to Array.length t.edges - 1 do
    acc := !acc +. t.weights.(i);
    let frac = if total = 0. then 0. else !acc /. total in
    out := (t.edges.(i), frac) :: !out
  done;
  List.rev !out

let footprint t =
  (* Fixed shape: two parallel float arrays, no per-observation state. *)
  let n = Array.length t.edges in
  Nt_obs.Footprint.v ~cards:n ~words:(8 + (2 * (n + 1)))
