(** Trace records: one per NFS call observed, with its reply if seen.

    This is the unit every analysis consumes and the unit the
    anonymizer rewrites. The text form is a stable, line-oriented,
    key=value format in the spirit of nfsdump; [to_line]/[of_line]
    round-trip, so traces can be saved, anonymized offline, shared, and
    re-analyzed — the workflow the paper's tools support. *)

type t = {
  time : float;  (** call timestamp (seconds since epoch) *)
  reply_time : float option;  (** reply timestamp; [None] if the reply was lost *)
  client : Nt_net.Ip_addr.t;
  server : Nt_net.Ip_addr.t;
  version : int;  (** 2 or 3 *)
  xid : int;
  uid : int;
  gid : int;
  call : Nt_nfs.Ops.call;
  result : Nt_nfs.Ops.result option;
}

val proc : t -> Nt_nfs.Proc.t

val fh : t -> Nt_nfs.Fh.t option
(** Handle the call operates on (directory handle for name ops). *)

val target_fh : t -> Nt_nfs.Fh.t option
(** Handle of the object the call ultimately concerns: for LOOKUP and
    CREATE-style calls this is the handle returned in the reply. *)

val name : t -> string option
val offset : t -> int64 option
val count : t -> int option

val io_bytes : t -> int
(** Bytes moved by READ/WRITE (from the reply when present, otherwise
    the call); 0 for other procedures. *)

val post_size : t -> int64 option
(** File size after the call, from post-op attributes in the reply. *)

val post_fattr : t -> Nt_nfs.Types.fattr option

val status : t -> Nt_nfs.Types.nfsstat option
(** [None] when the reply was lost. *)

val is_ok : t -> bool
(** True when a reply was seen and it carries NFS3_OK. *)

val add_line : Buffer.t -> t -> unit
(** Append the record's text line (no newline) to the buffer. The line
    is rendered into a per-domain byte scratch and appended with one
    blit; no string is built except where a float or xid falls back to
    its C formatter (DESIGN.md §18, "Writing"). *)

val output_line : out_channel -> t -> unit
(** Write the record's line and a newline to the channel, straight from
    the per-domain scratch it is rendered into: one copy per line, and
    almost no allocation. *)

val to_line : t -> string
(** {!add_line} into a fresh buffer. *)

(** {2 Field writers}

    The numeric writers {!add_line} uses. Each appends exactly the bytes
    of the named rendering. *)

val add_fixed6 : Buffer.t -> float -> unit
(** [Printf.sprintf "%.6f"]: the time columns. *)

val add_float : Buffer.t -> float -> unit
(** [string_of_float]: the [*time] keys. *)

val add_xid : Buffer.t -> int -> unit
(** [Printf.sprintf "%08x"]. *)

val parse_slice : string -> pos:int -> len:int -> (t, string) result
(** Parse the text line at [pos, pos+len) of [s] (no newline) in place,
    by the grammar of DESIGN.md §18. [s] is only read during the call:
    the record copies out the handles and names it keeps, so the caller
    may reuse or drop the buffer as soon as this returns. Total: a
    malformed line is an [Error], never an exception. *)

val of_line : string -> (t, string) result
(** {!parse_slice} over the whole string. *)

val write_channel : out_channel -> t Seq.t -> int
(** Stream records to a channel, one line each; returns the count. *)

(** {1 Reading} *)

(** The one line decoder, working as {!Nt_tbin.Decoder} does: every
    complete line in its window parses in place and reaches [emit] with
    the stream offset past its newline. Blank lines are skipped and
    malformed ones counted. Only [finish] parses a line still waiting
    for its newline. *)
module Decoder : sig
  type record := t
  type t

  val create : unit -> t
  val window : t -> Nt_net.Window.t
  val parse : t -> (record -> int -> unit) -> unit
  val finish : t -> (record -> int -> unit) -> unit
  val rejected : t -> int
end

type range = {
  rejected : int;  (** malformed lines skipped *)
  first : int;  (** offset of the range's first line, -1 if none starts in it *)
  stop : int;
      (** offset of the first line at or past [hi], or -1 if the range
          read to the end of the file *)
}

val iter_range : in_channel -> lo:int -> hi:int -> (t -> unit) -> range
(** Decode through [f] the lines of a seekable channel that start in
    [\[lo, hi)]: a range with [lo > 0] seeks to [lo - 1] and starts
    after the first newline at or past it, and the last line may run
    past [hi]. Ranges [\[c_i, c_(i+1))] therefore parse every line
    exactly once, and each range's [stop] is the next one's [first]. *)

val iter_channel : in_channel -> (t -> unit) -> int
(** The whole channel as one range; returns the number of malformed
    lines skipped. *)
