(** Composable, seeded fault injection for the capture path.

    The paper's tracer lived downstream of a lossy mirror port: CAMPUS
    dropped up to ~10% of packets under load, and months-long runs also
    saw corrupted frames, snaplen truncation, duplicated RPCs from UDP
    retransmission, reordering, and the occasional mangled pcap record
    (§4.1.4). This module models all of those as one declarative
    {!plan} so that every consumer — {!Packet_pipe}, the capture
    engine, the analyses — can be exercised against known-degraded
    input and its loss accounting validated.

    Faults are mutually exclusive per packet: a packet is first run
    through the drop model, and a surviving packet suffers at most one
    of duplication, corruption, truncation, or displacement. This makes
    the conservation invariant testable — every injected fault shows up
    in exactly one {!counts} field, and downstream in exactly one
    capture counter. Clock jitter is a timestamp perturbation applied
    on top, not an exclusive fault, so it has no count.

    All randomness flows through {!Nt_util.Prng}: the same seed and
    plan over the same packets produce byte-identical output. *)

type drop_model =
  | No_drop
  | Bernoulli of float  (** independent loss with this probability *)
  | Gilbert_elliott of { p_gb : float; p_bg : float; loss_good : float; loss_bad : float }
      (** two-state bursty loss: per-packet transition probabilities
          good→bad [p_gb] and bad→good [p_bg], with per-state loss
          rates. Mean loss = [loss_good] + (p_gb/(p_gb+p_bg)) ·
          ([loss_bad] - [loss_good]) for small rates. *)

type plan = {
  drop : drop_model;
  corrupt : float;  (** per-packet probability of byte corruption *)
  corrupt_bytes : int;  (** bytes flipped per corrupted packet, >= 1 *)
  corrupt_addrs_only : bool;
      (** restrict flips to the IPv4 source/destination address bytes
          (offsets 26..33): such corruption never changes the frame's
          structure, but always breaks the header checksum, so the
          capture engine detects it deterministically — exact
          conservation for tests. When false, flips land anywhere. *)
  truncate : float;  (** probability of truncating the frame *)
  truncate_to : int;  (** bytes kept when truncating *)
  duplicate : float;  (** probability of emitting the packet twice *)
  duplicate_delay : float;  (** seconds between the copies *)
  reorder : float;  (** probability of displacing the packet in time *)
  reorder_displace : float;  (** seconds a displaced packet is delayed *)
  clock_jitter : float;  (** uniform ±jitter added to every timestamp *)
}

val none : plan
(** All faults disabled; {!apply} is the identity. *)

val bernoulli_loss : float -> plan
(** [bernoulli_loss p]: only independent drop, probability [p] — a
    mirror port that loses packets without bursts ([nfswlgen --loss]). *)

val campus_burst : plan
(** A plan shaped like the CAMPUS mirror port under load: ~2% bursty
    loss (Gilbert–Elliott), light corruption, duplication and
    truncation. *)

val is_noop : plan -> bool

type counts = {
  presented : int;  (** packets offered to the injector *)
  dropped : int;
  corrupted : int;
  truncated : int;
  duplicated : int;  (** packets that were emitted twice *)
  reordered : int;
  emitted : int;  (** = presented - dropped + duplicated *)
}

val counts_to_string : counts -> string

type t
(** Stateful injector (drop-model state, PRNG, counters). *)

val create : ?obs:Nt_obs.Obs.t -> ?seed:int64 -> plan -> t
(** [obs] hosts the injection counters ([fault.presented],
    [fault.events{kind=...}], [fault.emitted]); defaults to a private
    always-enabled registry so {!counts} works without wiring. *)

val counts : t -> counts

val apply : t -> time:float -> string -> (float * string) list
(** Pass one packet through the plan. Returns zero (dropped), one, or
    two (duplicated) [(time, bytes)] pairs, with timestamps jittered or
    displaced as the plan dictates. *)

val mangle_pcap : ?seed:int64 -> flips:int -> string -> string * int
(** [mangle_pcap ~flips bytes] flips up to [flips] random bytes of a
    pcap byte string, sparing the 24-byte global header, and returns
    the mangled copy with the number of flips actually applied. Unlike
    {!apply}, this corrupts the savefile itself — record headers
    included — which is what the salvage-mode {!Nt_net.Pcap} reader
    exists to survive. *)
