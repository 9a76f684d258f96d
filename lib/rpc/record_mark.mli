(** RPC record marking over TCP (RFC 5531 §11).

    On TCP, RPC messages are delimited by 4-byte fragment headers: the
    top bit flags the last fragment of a record and the low 31 bits give
    the fragment length. CAMPUS traffic is NFSv3-over-TCP, so the capture
    path must reassemble records from an arbitrary byte stream — packets
    may split a record, and one jumbo frame may carry several records
    (the "TCP packet coalescing" the paper's tracer supports). *)

val frame : string -> string
(** Wrap one RPC message in a single last-fragment record. *)

val frame_fragmented : fragment_size:int -> string -> string
(** Split the message into fragments of at most [fragment_size] bytes;
    used by tests to exercise multi-fragment reassembly. *)

type reassembler

val create_reassembler : unit -> reassembler

val push_slice :
  reassembler -> string -> off:int -> len:int -> ('a -> string -> int -> int -> unit) -> 'a -> unit
(** [push_slice r buf ~off ~len f ctx] feeds the stream bytes
    [buf.[off .. off+len-1]] in arrival order and calls [f ctx s pos n]
    for each RPC record they complete (possibly several, possibly none),
    the record being [s.[pos .. pos+n-1]]. A record that lies whole
    inside the pushed bytes is a range of [buf]; one whose fragments
    span pushes is gathered into a buffer the reassembler reuses. Either
    way the range is valid only until [f] returns. *)

val push : reassembler -> string -> string list
(** {!push_slice} over a whole string, returning copies of the
    completed records. *)

val reset : reassembler -> unit
(** Drop any partial record, as after a hole in the stream. *)

val pending_bytes : reassembler -> int
(** Bytes buffered waiting for the rest of a record; useful for loss
    accounting at the end of a capture. *)
