(** Per-file I/O accesses: what a READ or WRITE record contributes to
    the run, reorder and sequentiality analyses. Those fold each access
    as it arrives, in wire arrival order — exactly what the paper's
    reorder-window technique then (partially) sorts. *)

type access = {
  at : float;  (** wire time of the call *)
  offset : int;  (** bytes *)
  count : int;  (** bytes actually moved *)
  is_read : bool;
  at_eof : bool;  (** the access referenced end-of-file *)
  file_size : int;  (** file size when the access completed *)
}

val of_record : Nt_trace.Record.t -> (Nt_nfs.Fh.t * access) option
(** The access a READ/WRITE record makes; [None] for other records and
    for I/O that moved no bytes. Lost-reply reads count with the
    requested byte count, as the paper's tools must assume. *)
