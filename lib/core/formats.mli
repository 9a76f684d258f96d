(** Single registry of versioned on-disk format tags.

    Every magic/version string any writer emits or any reader checks
    must be one of these values, referenced (never re-spelled): the
    codec-drift rules in ntcheck flag tag literals found anywhere
    outside this module. *)

val tbin_magic : string
val checkpoint_version : string
val obs_snapshot : string
val obs_series : string
val bench_obs : string
val bench_par : string
val bench_mon : string
val bench_scale : string
val exn_report : string
val mon_report : string

val all : (string * string) list
(** [(registry name, tag)] pairs, for reports and docs. *)
