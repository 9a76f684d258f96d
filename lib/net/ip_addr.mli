(** IPv4 addresses as plain ints (0 .. 2^32-1, host order). *)

type t = int

val v : int -> int -> int -> int -> t
(** [v 10 0 0 1] is 10.0.0.1. Each octet must be 0–255. *)

val to_string : t -> string
val of_slice : string -> pos:int -> len:int -> t option
(** Parse the dotted quad in [s] at [pos, pos+len) in place: four
    decimal octets 0–255, digits only. *)

val of_string : string -> t option
(** {!of_slice} over the whole string. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int
