(** Frame-level services for the nttb/1 container: payload checksums
    and the lightweight run-length frame compressor.

    The compressor is PackBits-style: a control byte [c] either copies
    [c + 1] literal bytes (c in 0..127) or repeats the next byte
    [c - 125] times (c in 128..255, runs of 3..130). Varint payloads
    compress on their zero runs (option bitmaps, zero nanoseconds,
    interned-atom back-references) and the worst case expands by under
    1%, which is why the writer keeps a frame compressed only when it
    actually shrank. *)

val adler32 : string -> pos:int -> len:int -> int
(** Adler-32 (RFC 1950) of a slice, as a non-negative int below
    2^32. *)

val compress : string -> string
(** Run-length encode; total, never raises. *)

val decompress : string -> pos:int -> len:int -> expect:int -> string
(** Inverse of {!compress} over a slice. Raises {!Varint.Corrupt}
    unless the slice decodes to exactly [expect] bytes with no input
    left over — the decoder treats that as frame corruption. *)

val decompress_into : string -> pos:int -> len:int -> bytes -> expect:int -> unit
(** {!decompress} into the first [expect] bytes of a buffer at least
    that long, which the caller owns and may reuse; the bytes past
    [expect] are left alone. Raises as {!decompress} does, leaving the
    buffer's contents unspecified. *)
