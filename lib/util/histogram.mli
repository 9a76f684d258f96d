(** Fixed-edge and logarithmic histograms plus CDF extraction.

    The paper presents several cumulative distributions over logarithmic
    axes (block lifetimes in Figure 3, run sizes in Figure 5); this module
    provides the shared bucketing machinery. *)

type t

val create : edges:float array -> t
(** [create ~edges] builds a histogram with [Array.length edges + 1]
    buckets: (-inf, e0), [e0, e1), ..., [e_last, +inf). [edges] must be
    strictly increasing. *)

val log2_buckets : lo:float -> hi:float -> t
(** Power-of-two edges covering [lo .. hi], e.g. file or run sizes. *)

val add : t -> float -> unit
(** Add an observation with weight 1. *)

val add_weighted : t -> float -> float -> unit
(** [add_weighted t x w] adds observation [x] with weight [w] (e.g. bytes). *)

val edges : t -> float array
val weight : t -> int -> float
(** Total weight in bucket [i]. *)

val total_weight : t -> float

val cdf : t -> (float * float) list
(** [(upper_edge, cumulative_fraction)] per bounded bucket; fractions in
    [\[0,1\]]. Empty histogram yields all-zero fractions. *)

val bucket_of : t -> float -> int
(** Index of the bucket that would receive value [x]. *)

val footprint : t -> Nt_obs.Footprint.t
(** Cardinality = bucket count; words = the two parallel arrays. *)
