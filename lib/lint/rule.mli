(** The declarative rule registry of nfslint.

    Every invariant the linter can check is declared here as a
    {!Nt_rules.t}: a stable string id, the family it belongs to, a
    default severity and a one-line description. The checking code in
    {!Protocol_check}, {!Anon_check} and {!Hygiene_check} refers to
    rules by these descriptors; {!Engine} hands the registry to
    {!Nt_rules} to select rules by id, and the CLI prints it for
    [--rules]. Adding a rule means adding a descriptor here and
    emitting findings for it from exactly one checker. Families are
    ["protocol"], ["anonymization"] and ["hygiene"]. *)

type t = Nt_rules.t

(** {2 Protocol family} — per-record trace invariants *)

val unanswered_call : t
(** A call whose reply was never seen (lost at capture or on the wire). *)

val duplicate_xid : t
(** Two records reuse the same (client, XID) pair within the XID
    window: either a retransmission leaked past dedup or the trace was
    spliced. *)

val fh_use_after_remove : t
(** A successful operation on a handle after the server acknowledged
    the removal of its last link. *)

val fh_before_introduction : t
(** READ/WRITE/COMMIT on a handle the trace never introduced (no
    LOOKUP/CREATE result and no earlier directory use). *)

val offset_beyond_size : t
(** A successful READ/WRITE whose [offset + count] lies beyond the file
    size attested by the same reply's post-op attributes. *)

val reply_before_call : t
(** Reply timestamp earlier than its call's. *)

val non_monotonic_time : t
(** Call timestamps run backwards by more than the reorder window. *)

val bad_io_range : t
(** Negative offset or count in a READ/WRITE/COMMIT call. *)

(** {2 Anonymization family} — leak safety of released traces *)

val raw_ip : t
(** Client or server address outside the anonymizer's private pool. *)

val unmapped_id : t
(** UID/GID that is neither preserved nor inside the anonymizer's
    mapped range. *)

val name_residue : t
(** A name component that does not parse as anonymizer output
    (token-shape check against the affix grammar). *)

val dictionary_word : t
(** A name containing a dictionary word — the strongest leak signal. *)

(** {2 Capture-hygiene family} — consistency of {!Nt_trace.Capture.stats} *)

val loss_accounting : t
(** Capture counters violate their conservation laws
    (e.g. calls <> replies + lost replies). *)

val capture_loss : t
(** The capture saw loss: orphan replies, lost replies or TCP gaps. *)

val frame_damage : t
(** Undecodable or corrupt frames, or RPC decode errors. *)

val salvage_gap : t
(** Pcap bytes were skipped during salvage without a matching salvaged
    record or truncated-tail flag. *)

val all : t list
(** Every rule, protocol family first. *)
