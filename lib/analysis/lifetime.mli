(** Create-based block lifetime analysis (§5.2, Table 4, Figure 3).

    Follows Roselli's two-phase method as the paper applies it: during
    Phase 1 both block births and deaths are recorded; during Phase 2
    (the end margin) only deaths of Phase-1-born blocks are recorded.
    Death records whose lifespan exceeds the Phase 2 length are dropped
    to remove sampling bias; blocks still alive at the end are the
    "end surplus".

    Births divide into actual data writes vs file extension (blocks
    materialised by a write past EOF, including the skipped-over
    blocks, which the paper notes mildly exaggerates extensions).
    Deaths divide into overwrite, truncate and file deletion. Blocks
    that already existed before Phase 1 are tracked as live but
    uncountable, exactly as a create-based analysis must. *)

type config = {
  phase1_start : float;
  phase1_len : float;  (** paper: 24 h *)
  phase2_len : float;  (** paper: 24 h end margin *)
  block : int;  (** 8192 *)
}

val config : phase1_start:float -> config
(** 24 h + 24 h at 8 KB, the paper's parameters. *)

type t

val create : config -> t

val observe : t -> Nt_trace.Record.t -> unit
(** Records must arrive in time order (the pipeline guarantees it). *)

type result = {
  births : int;
  births_write_pct : float;
  births_extension_pct : float;
  deaths : int;  (** after the sampling-bias filter *)
  deaths_overwrite_pct : float;
  deaths_truncate_pct : float;
  deaths_deletion_pct : float;
  end_surplus : int;
  end_surplus_pct : float;  (** of births *)
  lifetime_cdf : (float * float) list;  (** (seconds, cumulative fraction) *)
}

val result : t -> result

val cdf_at : result -> float -> float
(** Cumulative fraction of deaths with lifetime <= the given seconds. *)

val footprint : t -> Nt_obs.Footprint.t
(** State-footprint accounting (see {!Nt_obs.Footprint}): tracked
    entries and an approximate heap-words estimate. *)
