type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;
  mutable sum : float;
  mutable mn : float;
  mutable mx : float;
}

let create () = { n = 0; mean = 0.; m2 = 0.; sum = 0.; mn = nan; mx = nan }

let add t x =
  t.n <- t.n + 1;
  t.sum <- t.sum +. x;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if t.n = 1 then begin
    t.mn <- x;
    t.mx <- x
  end
  else begin
    if x < t.mn then t.mn <- x;
    if x > t.mx then t.mx <- x
  end

let count t = t.n
let total t = t.sum
let mean t = if t.n = 0 then 0. else t.mean
let variance t = if t.n < 2 then 0. else t.m2 /. float_of_int (t.n - 1)
let stddev t = sqrt (variance t)

let stddev_pct_of_mean t =
  let m = mean t in
  if m = 0. then 0. else 100. *. stddev t /. Float.abs m

let min t = t.mn
let max t = t.mx

let percentile data p =
  let n = Array.length data in
  if n = 0 then nan
  else begin
    let sorted = Array.copy data in
    Array.sort compare sorted;
    if n = 1 then sorted.(0)
    else
      let rank = p /. 100. *. float_of_int (n - 1) in
      let lo = int_of_float (Float.floor rank) in
      let hi = Stdlib.min (lo + 1) (n - 1) in
      let frac = rank -. float_of_int lo in
      sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

let median data = percentile data 50.

let footprint _t =
  (* One flat record of six scalar fields regardless of sample count. *)
  Nt_obs.Footprint.v ~cards:1 ~words:8
