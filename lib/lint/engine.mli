(** The linter: rules, state and findings behind one streaming façade.

    Feed records (and optionally capture stats) in stream order; the
    engine runs every enabled rule and counts its findings in an
    {!Nt_rules.tally} (capped per rule so a systemic fault cannot
    balloon memory — suppressed findings are still counted), which
    answers the severity counts and the exit-code policy.
    State is bounded, so million-record traces lint in constant memory
    (see {!Bounded} and {!Protocol_check}). *)

type config = {
  anonymized : bool;  (** run the anonymization family *)
  anon_profile : Anon_check.profile;
  reorder_window : float;  (** seconds; default 10 ms *)
  xid_window : float;  (** seconds; default 120 s *)
  max_tracked : int;  (** per-table state cap; default 1 million *)
  max_findings_per_rule : int;  (** stored findings cap; default 100 *)
  select : Nt_rules.selection;  (** default: every rule *)
}

val default_config : config

type t

val create : ?obs:Nt_obs.Obs.t -> config -> t
(** [obs] (default {!Nt_obs.Obs.null}) mirrors the engine's accounting
    as [lint.records], [lint.findings{rule=...}], [lint.suppressed],
    [lint.evictions] and the [lint.tracked] gauge. The accessors below
    never read the registry, so the disabled default costs one dead
    branch per record. *)

val observe : t -> Nt_trace.Record.t -> unit
(** Lint one record; the engine numbers records from zero. *)

val observe_stats : t -> Nt_trace.Capture.stats -> unit

val run :
  ?obs:Nt_obs.Obs.t -> ?stats:Nt_trace.Capture.stats -> config -> Nt_trace.Record.t Seq.t -> t
(** [create], observe the whole sequence, then any [stats]. *)

val findings : t -> Finding.t list
(** Stored findings ordered by record index (at most
    [max_findings_per_rule] each). Reading {!findings} or {!tally}
    finalizes deferred protocol checks — suspects still inside their
    reorder window are judged as if the stream had ended (see
    {!Protocol_check.finalize}). *)

val tally : t -> Finding.t Nt_rules.tally
(** Per-rule, per-severity and capped counts, suppressed findings
    included. *)

val records_seen : t -> int

val footprint : t -> Nt_obs.Footprint.t
(** State-footprint accounting: protocol-state entries plus kept
    findings; published as the [lint] component on every settle. *)
