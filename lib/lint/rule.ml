type t = Nt_rules.t

let rule id family severity doc = { Nt_rules.id; family; severity; doc }
let protocol = "protocol" and anonymization = "anonymization" and hygiene = "hygiene"

(* --- protocol --- *)

let unanswered_call =
  rule "unanswered-call" protocol Nt_rules.Warn
    "call has no reply: lost at the monitor or on the wire"

let duplicate_xid =
  rule "duplicate-xid" protocol Nt_rules.Warn
    "(client, XID) pair reused within the XID window"

let fh_use_after_remove =
  rule "fh-use-after-remove" protocol Nt_rules.Error
    "successful operation on a handle after its last link was removed"

let fh_before_introduction =
  rule "fh-before-introduction" protocol Nt_rules.Warn
    "READ/WRITE/COMMIT on a handle the trace never introduced"

let offset_beyond_size =
  rule "offset-beyond-size" protocol Nt_rules.Error
    "successful I/O extends past the size attested by the same reply"

let reply_before_call =
  rule "reply-before-call" protocol Nt_rules.Error "reply timestamped before its call"

let non_monotonic_time =
  rule "non-monotonic-time" protocol Nt_rules.Warn
    "call time runs backwards by more than the reorder window"

let bad_io_range =
  rule "bad-io-range" protocol Nt_rules.Error "negative offset or count in an I/O call"

(* --- anonymization --- *)

let raw_ip =
  rule "raw-ip" anonymization Nt_rules.Error
    "address outside the anonymizer's private pool"

let unmapped_id =
  rule "unmapped-id" anonymization Nt_rules.Error
    "UID/GID neither preserved nor in the anonymizer's mapped range"

let name_residue =
  rule "name-residue" anonymization Nt_rules.Error
    "name component does not parse as anonymizer output"

let dictionary_word =
  rule "dictionary-word" anonymization Nt_rules.Error
    "name contains a dictionary word"

(* --- capture hygiene --- *)

let loss_accounting =
  rule "loss-accounting" hygiene Nt_rules.Error
    "capture counters violate their conservation laws"

let capture_loss =
  rule "capture-loss" hygiene Nt_rules.Warn
    "capture saw loss: orphan replies, lost replies or TCP gaps"

let frame_damage =
  rule "frame-damage" hygiene Nt_rules.Warn
    "undecodable or corrupt frames, or RPC decode errors"

let salvage_gap =
  rule "salvage-gap" hygiene Nt_rules.Warn
    "pcap bytes skipped without a salvaged record or truncated-tail flag"

let all =
  [
    unanswered_call;
    duplicate_xid;
    fh_use_after_remove;
    fh_before_introduction;
    offset_beyond_size;
    reply_before_call;
    non_monotonic_time;
    bad_io_range;
    raw_ip;
    unmapped_id;
    name_residue;
    dictionary_word;
    loss_accounting;
    capture_loss;
    frame_damage;
    salvage_gap;
  ]

