(** Streaming and batch descriptive statistics used by every analysis. *)

type t
(** Online accumulator (Welford) for count / mean / variance / extrema. *)

val create : unit -> t
val add : t -> float -> unit
val count : t -> int
val total : t -> float
val mean : t -> float
(** 0 when empty. *)

val variance : t -> float
(** Sample variance (n-1 denominator); 0 when count < 2. *)

val stddev : t -> float

val stddev_pct_of_mean : t -> float
(** Standard deviation expressed as a percentage of the mean, the form
    used throughout Table 5 of the paper. 0 when the mean is 0. *)

val min : t -> float
(** [nan] when empty. *)

val max : t -> float
(** [nan] when empty. *)

val percentile : float array -> float -> float
(** [percentile data p] with [p] in [\[0,100\]]; sorts a copy; linear
    interpolation between order statistics. [nan] on empty input. *)

val median : float array -> float

val footprint : t -> Nt_obs.Footprint.t
(** Constant: a Welford accumulator never grows. *)
