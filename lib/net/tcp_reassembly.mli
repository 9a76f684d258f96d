(** Per-flow TCP stream reassembly for the capture path.

    The monitor sees raw segments which may be duplicated, reordered, or
    missing (the CAMPUS mirror port dropped up to 10% of packets during
    bursts, §4.1.4). This module reconstructs each direction of each
    connection into an in-order byte stream and reports unrecoverable
    holes as {!Gap} events so the RPC layer can resynchronise and the
    capture engine can account for the loss.

    Sequence-number comparison is wraparound-aware (RFC 1982 style), so
    long-lived CAMPUS connections that wrap 2^32 are handled. *)

type flow = { src_ip : Ip_addr.t; src_port : int; dst_ip : Ip_addr.t; dst_port : int }
(** One direction of a connection. *)

type event =
  | Data of string  (** next in-order bytes of the stream *)
  | Gap of int  (** [Gap n]: approximately [n] bytes were lost; stream resumes after *)

type t

val create : ?max_buffered_segments:int -> unit -> t
(** [max_buffered_segments] (default 64) bounds the out-of-order buffer
    per flow; when exceeded, the reassembler declares a gap and resyncs
    at the earliest buffered segment. *)

val push_slice :
  t ->
  flow ->
  seq:int ->
  syn:bool ->
  string ->
  off:int ->
  len:int ->
  data:('a -> string -> int -> int -> unit) ->
  gap:('a -> int -> unit) ->
  'a ->
  unit
(** Feed the segment whose payload is [buf.[off .. off+len-1]]; the
    events it unlocks arrive in order through [data ctx s off len] (the
    next in-order bytes) and [gap ctx n] (see {!Gap}). A SYN consumes
    one sequence number and establishes the initial sequence number for
    the flow.

    In-order bytes are handed over as a range of [buf] itself; only a
    segment that arrives ahead of a hole is copied, so it can wait. A
    [data] range is valid only until the callback returns. *)

val push : t -> flow -> seq:int -> syn:bool -> string -> event list
(** {!push_slice} over a whole string, collecting the events as a list
    of copies. *)

val flows : t -> int
(** Number of distinct flows seen. *)

val gaps : t -> int
(** Total number of gap events declared so far. *)
