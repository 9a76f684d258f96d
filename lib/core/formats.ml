(* The single registry of every versioned on-disk format tag this
   project writes or reads.  A version bump edits exactly one line
   here; ntcheck's codec-drift family (format-literal-drift,
   format-unregistered) rejects any tag literal that lives anywhere
   else, so two halves of a codec cannot silently disagree about a
   version.  Keep every tag a top-level [let name = "literal"]: the
   checker reads this module's typedtree and collects exactly those
   bindings as the registered set. *)

let tbin_magic = "nttb/1\n"
(* Stream magic of the compact binary trace container (lib/tbin); the
   trailing newline keeps `head -1` and file(1) friendly. *)

let checkpoint_version = "ntmon-ckpt/2"
(* First line of nfsmon's atomic checkpoint files (lib/mon). *)

let obs_snapshot = "nt_obs/1"
(* "schema" tag of every metrics snapshot JSON document (lib/obs). *)

let obs_series = "nt_obs_series/1"
(* "schema" tag of the resource-sampler time-series JSON (lib/obs). *)

let bench_obs = "nt_bench_obs/1"
(* "schema" tag of BENCH_obs.json (bench obs overhead gate). *)

let bench_par = "nt_bench_par/3"
(* "schema" tag of BENCH_par.json (bench par report identity and per-pass gates). *)

let bench_mon = "nt_bench_mon/1"
(* "schema" tag of BENCH_mon.json (bench monitor soak gate). *)

let bench_scale = "nt_bench_scale/1"
(* "schema" tag of BENCH_scale.json (bench out-of-core scale gate). *)

let exn_report = "ntcheck-exn/1"
(* "schema" tag of ntcheck's per-function may-raise report. *)

let mon_report = "nfsmon-report/1"
(* "schema" tag of each nfsmon --json report line (lib/mon). *)

let all =
  [
    ("tbin_magic", tbin_magic);
    ("checkpoint_version", checkpoint_version);
    ("obs_snapshot", obs_snapshot);
    ("obs_series", obs_series);
    ("bench_obs", bench_obs);
    ("bench_par", bench_par);
    ("bench_mon", bench_mon);
    ("bench_scale", bench_scale);
    ("exn_report", exn_report);
    ("mon_report", mon_report);
  ]
