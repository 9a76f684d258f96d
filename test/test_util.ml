(* Unit and property tests for Nt_util: PRNG, distributions, statistics,
   histograms, trace-week calendar and table rendering. *)

module Prng = Nt_util.Prng
module Dist = Nt_util.Dist
module Stats = Nt_util.Stats
module Histogram = Nt_util.Histogram
module Tw = Nt_util.Trace_week
module Tables = Nt_util.Tables

let check = Alcotest.check
let checkf msg = check (Alcotest.float 1e-9) msg
let checkf_eps eps msg = check (Alcotest.float eps) msg

(* --- PRNG --- *)

let test_prng_deterministic () =
  let a = Prng.create 42L and b = Prng.create 42L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 1L and b = Prng.create 2L in
  Alcotest.(check bool) "different seeds differ" false (Prng.next_int64 a = Prng.next_int64 b)

let test_prng_split_independent () =
  let parent = Prng.create 7L in
  let child = Prng.split parent in
  let v1 = Prng.next_int64 child in
  (* Re-derive: same parent seed, same split order -> same child. *)
  let parent2 = Prng.create 7L in
  let child2 = Prng.split parent2 in
  check Alcotest.int64 "split reproducible" v1 (Prng.next_int64 child2)

let test_prng_copy () =
  let a = Prng.create 5L in
  ignore (Prng.next_int64 a);
  let b = Prng.copy a in
  check Alcotest.int64 "copy continues identically" (Prng.next_int64 a) (Prng.next_int64 b)

let test_prng_int_range () =
  let rng = Prng.create 11L in
  for _ = 1 to 10_000 do
    let v = Prng.int rng 17 in
    Alcotest.(check bool) "in [0,17)" true (v >= 0 && v < 17)
  done

let test_prng_int_in () =
  let rng = Prng.create 13L in
  for _ = 1 to 1000 do
    let v = Prng.int_in rng (-5) 5 in
    Alcotest.(check bool) "in [-5,5]" true (v >= -5 && v <= 5)
  done

let test_prng_unit_float () =
  let rng = Prng.create 17L in
  for _ = 1 to 10_000 do
    let v = Prng.unit_float rng in
    Alcotest.(check bool) "in [0,1)" true (v >= 0. && v < 1.)
  done

let test_prng_uniformity () =
  let rng = Prng.create 23L in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let b = Prng.int rng 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iter
    (fun c ->
      let frac = float_of_int c /. float_of_int n in
      Alcotest.(check bool) "bucket near 10%" true (frac > 0.08 && frac < 0.12))
    buckets

let test_prng_chance () =
  let rng = Prng.create 29L in
  let hits = ref 0 in
  for _ = 1 to 100_000 do
    if Prng.chance rng 0.25 then incr hits
  done;
  let p = float_of_int !hits /. 100_000. in
  Alcotest.(check bool) "p ~ 0.25" true (p > 0.23 && p < 0.27)

let test_prng_shuffle_permutation () =
  let rng = Prng.create 31L in
  let a = Array.init 50 (fun i -> i) in
  Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check Alcotest.(array int) "shuffle is a permutation" (Array.init 50 (fun i -> i)) sorted

let test_prng_choose () =
  let rng = Prng.create 37L in
  let a = [| "x"; "y"; "z" |] in
  for _ = 1 to 100 do
    let c = Prng.choose rng a in
    Alcotest.(check bool) "chosen from array" true (Array.exists (String.equal c) a)
  done

(* --- distributions --- *)

let mean_of f n rng =
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. f rng
  done;
  !sum /. float_of_int n

let test_exponential_mean () =
  let rng = Prng.create 41L in
  let m = mean_of (fun r -> Dist.exponential r ~rate:2.) 100_000 rng in
  checkf_eps 0.02 "mean 1/rate" 0.5 m

let test_exponential_positive () =
  let rng = Prng.create 43L in
  for _ = 1 to 1000 do
    Alcotest.(check bool) "positive" true (Dist.exponential rng ~rate:0.1 > 0.)
  done

let test_uniform_bounds () =
  let rng = Prng.create 47L in
  for _ = 1 to 1000 do
    let v = Dist.uniform rng ~lo:3. ~hi:9. in
    Alcotest.(check bool) "in bounds" true (v >= 3. && v < 9.)
  done

let test_normal_mean_stddev () =
  let rng = Prng.create 53L in
  let s = Stats.create () in
  for _ = 1 to 100_000 do
    Stats.add s (Dist.normal rng ~mean:10. ~stddev:3.)
  done;
  checkf_eps 0.1 "mean" 10. (Stats.mean s);
  checkf_eps 0.1 "stddev" 3. (Stats.stddev s)

let test_lognormal_median () =
  let rng = Prng.create 59L in
  let vals = Array.init 50_001 (fun _ -> Dist.lognormal rng ~mu:(log 100.) ~sigma:1.0) in
  let med = Stats.median vals in
  Alcotest.(check bool) "median near e^mu" true (med > 90. && med < 110.)

let test_pareto_min () =
  let rng = Prng.create 61L in
  for _ = 1 to 1000 do
    Alcotest.(check bool) "above x_min" true (Dist.pareto rng ~alpha:1.5 ~x_min:10. >= 10.)
  done

let test_geometric_mean () =
  let rng = Prng.create 67L in
  let m = mean_of (fun r -> float_of_int (Dist.geometric r ~p:0.5)) 100_000 rng in
  checkf_eps 0.05 "mean (1-p)/p" 1.0 m

let test_poisson_mean () =
  let rng = Prng.create 71L in
  let m = mean_of (fun r -> float_of_int (Dist.poisson r ~mean:4.)) 50_000 rng in
  checkf_eps 0.1 "mean" 4.0 m

let test_poisson_large_mean () =
  let rng = Prng.create 73L in
  let m = mean_of (fun r -> float_of_int (Dist.poisson r ~mean:200.)) 20_000 rng in
  Alcotest.(check bool) "normal approx near mean" true (m > 195. && m < 205.)

let test_zipf_rank_one_most_popular () =
  let rng = Prng.create 79L in
  let z = Dist.zipf ~n:100 ~s:1.0 in
  let counts = Array.make 101 0 in
  for _ = 1 to 100_000 do
    let r = Dist.zipf_draw rng z in
    Alcotest.(check bool) "rank in range" true (r >= 1 && r <= 100);
    counts.(r) <- counts.(r) + 1
  done;
  Alcotest.(check bool) "rank1 > rank10" true (counts.(1) > counts.(10));
  Alcotest.(check bool) "rank1 > rank2" true (counts.(1) > counts.(2))

let test_zipf_n () =
  check Alcotest.int "zipf_n" 42 (Dist.zipf_n (Dist.zipf ~n:42 ~s:0.5))

let test_weighted_draw () =
  let rng = Prng.create 83L in
  let w = Dist.weighted [ ("a", 1.); ("b", 9.) ] in
  let b_count = ref 0 in
  for _ = 1 to 10_000 do
    if Dist.weighted_draw rng w = "b" then incr b_count
  done;
  let frac = float_of_int !b_count /. 10_000. in
  Alcotest.(check bool) "b ~ 90%" true (frac > 0.87 && frac < 0.93)

(* --- stats --- *)

let test_stats_known_values () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  check Alcotest.int "count" 8 (Stats.count s);
  checkf "mean" 5. (Stats.mean s);
  checkf "total" 40. (Stats.total s);
  checkf_eps 1e-9 "variance (n-1)" (32. /. 7.) (Stats.variance s);
  checkf "min" 2. (Stats.min s);
  checkf "max" 9. (Stats.max s)

let test_stats_empty () =
  let s = Stats.create () in
  checkf "mean empty" 0. (Stats.mean s);
  checkf "variance empty" 0. (Stats.variance s);
  Alcotest.(check bool) "min is nan" true (Float.is_nan (Stats.min s))

let test_stats_stddev_pct () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 10.; 10.; 10. ];
  checkf "zero spread" 0. (Stats.stddev_pct_of_mean s)

let test_percentile () =
  let data = [| 1.; 2.; 3.; 4.; 5. |] in
  checkf "p0" 1. (Stats.percentile data 0.);
  checkf "p50" 3. (Stats.percentile data 50.);
  checkf "p100" 5. (Stats.percentile data 100.);
  checkf "p25" 2. (Stats.percentile data 25.)

let test_median_even () =
  checkf "median interpolates" 2.5 (Stats.median [| 1.; 2.; 3.; 4. |])

let test_percentile_empty () =
  Alcotest.(check bool) "nan on empty" true (Float.is_nan (Stats.percentile [||] 50.))

(* --- histogram --- *)

let test_histogram_bucketing () =
  let h = Histogram.create ~edges:[| 10.; 20.; 30. |] in
  Histogram.add h 5.;
  Histogram.add h 10.;
  Histogram.add h 15.;
  Histogram.add h 25.;
  Histogram.add h 100.;
  checkf "bucket <10" 1. (Histogram.weight h 0);
  checkf "bucket [10,20)" 2. (Histogram.weight h 1);
  checkf "bucket [20,30)" 1. (Histogram.weight h 2);
  checkf "bucket >=30" 1. (Histogram.weight h 3);
  checkf "total" 5. (Histogram.total_weight h)

let test_histogram_weighted () =
  let h = Histogram.create ~edges:[| 1. |] in
  Histogram.add_weighted h 0.5 3.5;
  Histogram.add_weighted h 2.0 1.5;
  checkf "weighted low" 3.5 (Histogram.weight h 0);
  checkf "weighted high" 1.5 (Histogram.weight h 1)

let test_histogram_cdf () =
  let h = Histogram.create ~edges:[| 1.; 2.; 3. |] in
  List.iter (Histogram.add h) [ 0.5; 1.5; 1.7; 2.5 ];
  match Histogram.cdf h with
  | [ (_, f1); (_, f2); (_, f3) ] ->
      checkf "cdf 1" 0.25 f1;
      checkf "cdf 2" 0.75 f2;
      checkf "cdf 3" 1.0 f3
  | _ -> Alcotest.fail "expected 3 cdf points"

let test_histogram_log2 () =
  let h = Histogram.log2_buckets ~lo:1. ~hi:8. in
  check Alcotest.(array (float 1e-9)) "edges double" [| 1.; 2.; 4.; 8. |] (Histogram.edges h)

let test_histogram_empty_cdf () =
  let h = Histogram.create ~edges:[| 1.; 2. |] in
  List.iter (fun (_, f) -> checkf "zero fraction" 0. f) (Histogram.cdf h)

(* --- trace week --- *)

let test_week_span () = checkf "week is 7 days" (7. *. 86400.) (Tw.week_end -. Tw.week_start)

let test_day_of_time () =
  check Alcotest.string "start is Sunday" "Sun" (Tw.day_to_string (Tw.day_of_time Tw.week_start));
  check Alcotest.string "next day is Monday" "Mon"
    (Tw.day_to_string (Tw.day_of_time (Tw.week_start +. 86400.)));
  check Alcotest.string "last day is Saturday" "Sat"
    (Tw.day_to_string (Tw.day_of_time (Tw.week_end -. 1.)))

let test_hour_of_time () =
  check Alcotest.int "midnight" 0 (Tw.hour_of_time Tw.week_start);
  check Alcotest.int "9am" 9 (Tw.hour_of_time (Tw.week_start +. (9. *. 3600.)));
  check Alcotest.int "23h" 23 (Tw.hour_of_time (Tw.week_start +. (23.5 *. 3600.)))

let test_hour_index () =
  check Alcotest.int "first hour" 0 (Tw.hour_index Tw.week_start);
  check Alcotest.int "Monday 1am" 25 (Tw.hour_index (Tw.week_start +. (25.5 *. 3600.)))

let test_is_peak () =
  let mon10 = Tw.time_of ~day:Tw.Mon ~hour:10 ~minute:0 in
  let mon8 = Tw.time_of ~day:Tw.Mon ~hour:8 ~minute:0 in
  let mon18 = Tw.time_of ~day:Tw.Mon ~hour:18 ~minute:0 in
  let sun12 = Tw.time_of ~day:Tw.Sun ~hour:12 ~minute:0 in
  Alcotest.(check bool) "Mon 10am peak" true (Tw.is_peak mon10);
  Alcotest.(check bool) "Mon 8am not peak" false (Tw.is_peak mon8);
  Alcotest.(check bool) "Mon 6pm not peak (exclusive)" false (Tw.is_peak mon18);
  Alcotest.(check bool) "Sunday noon not peak" false (Tw.is_peak sun12)

let test_time_of () =
  let t = Tw.time_of ~day:Tw.Wed ~hour:14 ~minute:30 in
  check Alcotest.string "day" "Wed" (Tw.day_to_string (Tw.day_of_time t));
  check Alcotest.int "hour" 14 (Tw.hour_of_time t)

let test_format () =
  let t = Tw.time_of ~day:Tw.Fri ~hour:9 ~minute:5 in
  check Alcotest.string "formatted" "Fri 09:05:00.000" (Tw.format t)

(* --- tables --- *)

let test_table_render () =
  let out = Tables.render ~header:[ "a"; "bb" ] [ [ "x"; "1" ]; [ "yyy"; "22" ] ] in
  let lines = String.split_on_char '\n' out in
  check Alcotest.int "5 lines (incl. trailing empty)" 5 (List.length lines);
  Alcotest.(check bool) "aligned" true
    (String.length (List.nth lines 0) = String.length (List.nth lines 2))

let test_fmt_bytes () =
  check Alcotest.string "GB" "1.5 GB" (Tables.fmt_bytes (1.5 *. 1024. *. 1024. *. 1024.));
  check Alcotest.string "KB" "8.0 KB" (Tables.fmt_bytes 8192.);
  check Alcotest.string "B" "100 B" (Tables.fmt_bytes 100.)

let test_fmt_duration () =
  check Alcotest.string "sub-second" "0.40 s" (Tables.fmt_duration 0.4);
  check Alcotest.string "minutes" "5.0 min" (Tables.fmt_duration 300.);
  check Alcotest.string "days" "2.0 days" (Tables.fmt_duration 172800.)

let test_fmt_pct () = check Alcotest.string "pct" "12.3%" (Tables.fmt_pct 12.345)

(* --- qcheck properties --- *)

let prop_prng_int_bounds =
  QCheck.Test.make ~name:"prng int always in bounds" ~count:1000
    QCheck.(pair int64 (int_range 1 1_000_000))
    (fun (seed, n) ->
      let rng = Prng.create seed in
      let v = Prng.int rng n in
      v >= 0 && v < n)

let prop_percentile_within_range =
  QCheck.Test.make ~name:"percentile stays within data range" ~count:500
    QCheck.(pair (list_of_size Gen.(1 -- 50) (float_range (-1000.) 1000.)) (float_range 0. 100.))
    (fun (data, p) ->
      let arr = Array.of_list data in
      let v = Stats.percentile arr p in
      let lo = Array.fold_left min arr.(0) arr and hi = Array.fold_left max arr.(0) arr in
      v >= lo -. 1e-9 && v <= hi +. 1e-9)

let prop_histogram_total =
  QCheck.Test.make ~name:"histogram total equals observation count" ~count:300
    QCheck.(list (float_range (-100.) 100.))
    (fun data ->
      let h = Histogram.create ~edges:[| -50.; 0.; 50. |] in
      List.iter (Histogram.add h) data;
      abs_float (Histogram.total_weight h -. float_of_int (List.length data)) < 1e-9)

let () =
  Alcotest.run "nt_util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "split reproducible" `Quick test_prng_split_independent;
          Alcotest.test_case "copy" `Quick test_prng_copy;
          Alcotest.test_case "int range" `Quick test_prng_int_range;
          Alcotest.test_case "int_in range" `Quick test_prng_int_in;
          Alcotest.test_case "unit float range" `Quick test_prng_unit_float;
          Alcotest.test_case "uniformity" `Quick test_prng_uniformity;
          Alcotest.test_case "chance probability" `Quick test_prng_chance;
          Alcotest.test_case "shuffle permutation" `Quick test_prng_shuffle_permutation;
          Alcotest.test_case "choose membership" `Quick test_prng_choose;
          QCheck_alcotest.to_alcotest prop_prng_int_bounds;
        ] );
      ( "dist",
        [
          Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
          Alcotest.test_case "exponential positive" `Quick test_exponential_positive;
          Alcotest.test_case "uniform bounds" `Quick test_uniform_bounds;
          Alcotest.test_case "normal mean/stddev" `Quick test_normal_mean_stddev;
          Alcotest.test_case "lognormal median" `Quick test_lognormal_median;
          Alcotest.test_case "pareto min" `Quick test_pareto_min;
          Alcotest.test_case "geometric mean" `Quick test_geometric_mean;
          Alcotest.test_case "poisson mean" `Quick test_poisson_mean;
          Alcotest.test_case "poisson large mean" `Quick test_poisson_large_mean;
          Alcotest.test_case "zipf popularity order" `Quick test_zipf_rank_one_most_popular;
          Alcotest.test_case "zipf n" `Quick test_zipf_n;
          Alcotest.test_case "weighted draw" `Quick test_weighted_draw;
        ] );
      ( "stats",
        [
          Alcotest.test_case "known values" `Quick test_stats_known_values;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "stddev pct" `Quick test_stats_stddev_pct;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "median even" `Quick test_median_even;
          Alcotest.test_case "percentile empty" `Quick test_percentile_empty;
          QCheck_alcotest.to_alcotest prop_percentile_within_range;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "bucketing" `Quick test_histogram_bucketing;
          Alcotest.test_case "weighted" `Quick test_histogram_weighted;
          Alcotest.test_case "cdf" `Quick test_histogram_cdf;
          Alcotest.test_case "log2 edges" `Quick test_histogram_log2;
          Alcotest.test_case "empty cdf" `Quick test_histogram_empty_cdf;
          QCheck_alcotest.to_alcotest prop_histogram_total;
        ] );
      ( "trace_week",
        [
          Alcotest.test_case "week span" `Quick test_week_span;
          Alcotest.test_case "day of time" `Quick test_day_of_time;
          Alcotest.test_case "hour of time" `Quick test_hour_of_time;
          Alcotest.test_case "hour index" `Quick test_hour_index;
          Alcotest.test_case "is peak" `Quick test_is_peak;
          Alcotest.test_case "time_of" `Quick test_time_of;
          Alcotest.test_case "format" `Quick test_format;
        ] );
      ( "tables",
        [
          Alcotest.test_case "render aligned" `Quick test_table_render;
          Alcotest.test_case "fmt bytes" `Quick test_fmt_bytes;
          Alcotest.test_case "fmt duration" `Quick test_fmt_duration;
          Alcotest.test_case "fmt pct" `Quick test_fmt_pct;
        ] );
    ]
