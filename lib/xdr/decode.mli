(** XDR decoding (RFC 4506).

    A decoder is a cursor over an immutable string. Decoding failures —
    truncated data, absurd lengths — raise {!Error}; the capture engine
    catches it per-packet so one malformed packet cannot poison a trace. *)

exception Error of string

type t

val of_string : ?pos:int -> ?len:int -> string -> t
(** Decode window over [string]; defaults to the whole string. *)

val pos : t -> int
(** Absolute position of the cursor within the underlying string. *)

val remaining : t -> int
val at_end : t -> bool

val uint32 : t -> int
val int32 : t -> int32
val uint64 : t -> int64
val int64 : t -> int64
val bool : t -> bool
val enum : t -> int

val fixed_opaque : t -> int -> string
(** [fixed_opaque t n] reads [n] bytes plus padding. *)

val opaque : t -> string
(** Length-prefixed opaque. Raises {!Error} if the length exceeds the
    remaining window (corrupt or truncated message). *)

val string : t -> string

val skip_opaque : t -> int
(** Step over a length-prefixed opaque and its padding without copying
    it; returns the length. Raises {!Error} exactly where {!opaque}
    would. READ/WRITE data goes through here: traces keep only its size. *)

val array : t -> (t -> 'a) -> 'a list
(** Length-prefixed array. The count is sanity-checked against the
    remaining bytes (each element needs at least 4 bytes). *)

val optional : t -> (t -> 'a) -> 'a option

val skip : t -> int -> unit
(** Advance the cursor by [n] bytes (no padding applied). *)
