(** NFS file handles.

    On the wire a handle is opaque: fixed 32 bytes in v2, variable up to
    64 bytes in v3. Our simulated server packs the file-system id and
    the inode number into the handle the way real servers do, and the
    trace analyses use the compact hex form as the file's identity. *)

type t

val of_raw : string -> t
(** Wrap wire bytes (any length 0–64). *)

val to_raw : t -> string

val make : fsid:int -> fileid:int -> t
(** A server-style handle: 32 bytes embedding fsid, fileid and a
    generation pad. *)

val fileid : t -> int option
(** Recover the fileid from a handle built by {!make}; [None] for
    foreign handles. *)

val fsid : t -> int option
(** Recover the file-system id from a handle built by {!make}; [None]
    for foreign handles. The live monitor's per-filesystem breakdown
    keys on this. *)

val to_hex : t -> string
(** Compact identity used in trace records (first 16 significant
    bytes, hex). *)

val to_hex_full : t -> string
(** Lossless hex of the whole handle, for trace serialization. *)

val of_hex_slice : string -> pos:int -> len:int -> t option
(** Decode the hex at [pos, pos+len) of [s] in place: an even number of
    hex digits (either case), at most 128. Inverse of {!to_hex_full}. *)

val of_hex : string -> t option
(** {!of_hex_slice} over the whole string. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val v2_size : int
(** 32: v2 handles are padded/truncated to exactly this size. *)

val to_v2_raw : t -> string
(** Fixed 32-byte form for the v2 codec. *)
