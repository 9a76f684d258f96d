(** Versioned, atomic checkpoints of monitor state.

    A checkpoint file is one JSON document on one line, followed by a
    line [digest <md5 of that line>]. The document is built by the
    caller ({!Service}); its ["format"] member names the version.
    Writes go to [path ^ ".tmp"] and are fsynced before an atomic
    [rename], so a crash mid-write leaves the previous checkpoint
    intact; a torn or tampered file fails the digest and {!load}
    returns [Error] rather than restoring garbage. Restore-on-start
    therefore has exactly two outcomes: the full saved state, or a
    clean fresh start with the failure counted. *)

val version : string
(** ["ntmon-ckpt/2"] — bump when the document's shape changes; [load]
    refuses other versions, so the first start after an upgrade is a
    counted cold start. *)

val save : path:string -> Nt_obs.Obs.Json.v -> (unit, string) result
(** [Error], leaving any previous checkpoint in place, when the
    document holds a number that is not finite with |v| < 2{^53} (the
    range where JSON numbers are exact integers) or the write fails. *)

val load : path:string -> (Nt_obs.Obs.Json.v, string) result
(** Checks the digest, then parses, then checks that ["format"] is
    {!version}. *)
