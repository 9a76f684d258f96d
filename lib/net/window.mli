(** The input window every stream decoder (pcap, nttb/1, text lines)
    reads into, from a channel or from the monitor's file descriptor.
    The unparsed bytes are [buf.[head, tail)] and [pos] is the stream
    offset of [buf.[head]]. {!make_room} slides the live bytes back to
    0 and doubles [buf] only when they still do not fit, so a window
    settles at about one input unit plus one read. *)

type t = { mutable buf : Bytes.t; mutable head : int; mutable tail : int; mutable pos : int }

val create : int -> t

val length : t -> int
val stream_end : t -> int  (** [pos + length]: how far the stream was read *)

val make_room : t -> int -> unit
(** Room for [n] bytes after [tail]; moves the live bytes. *)

val drop : t -> int -> unit

val reset_at : t -> int -> unit
(** Forget the buffered bytes and resume at stream offset [off]. *)

val chunk : int
(** Bytes per read, for every reader: 64 KiB. *)

val input : t -> in_channel -> int
(** Read up to {!chunk} bytes after [tail]; 0 at end of file. *)
