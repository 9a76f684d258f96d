(** The one rule policy behind both static checkers: nfslint over
    traces and ntcheck over typedtrees.

    A checker declares its registry as a list of {!t}; this module
    decides which rules run ({!selection}), which findings are kept and
    how many are counted ({!tally}), and whether the run fails
    ({!fails}). A finding past its rule's cap is not stored but still
    counts, per rule and per severity, so a capped error fails the gate
    exactly as a stored one does. *)

type severity = Info | Warn | Error

val severity_to_string : severity -> string

type t = {
  id : string;  (** stable identifier, e.g. ["unanswered-call"] *)
  family : string;  (** printed family name, e.g. ["protocol"] *)
  severity : severity;
  doc : string;  (** one-line description for [--rules] *)
}

type selection = {
  enabled_only : string list option;  (** [Some ids]: run just these rules *)
  disabled : string list;  (** rule ids to skip *)
}

val every_rule : selection
(** Runs the whole registry. *)

val enabled : selection -> t -> bool

val unknown : t list -> selection -> string list
(** Ids the selection names that the registry does not hold. *)

type 'f tally
(** The findings of one run, ['f] being the checker's finding type. *)

val tally : select:selection -> cap:int -> 'f tally
(** Counts the findings of the rules [select] runs and keeps at most
    [cap] of them per rule. *)

val add : 'f tally -> t -> 'f -> [ `Off | `Kept | `Capped ]
(** Count a finding of this rule: [`Off] if the selection skips the
    rule (nothing counted), [`Capped] if it counted but was not stored
    because the rule reached its cap. *)

val kept : 'f tally -> 'f list
(** Stored findings, in the order they were added. *)

val kept_count : 'f tally -> int

val count : 'f tally -> t -> int
(** Findings of one rule, capped ones included. *)

val capped : 'f tally -> int
(** Findings counted but not stored. *)

val severity_count : 'f tally -> severity -> int
(** Findings at exactly this severity, capped ones included. *)

val fails : fail_on:severity option -> 'f tally -> bool
(** [fail_on = Some s]: some finding is at [s] or above. [None] never
    fails. *)
