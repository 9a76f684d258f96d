(** The simulated NFS client.

    Reproduces the client behaviours the paper identifies as shaping
    server workloads:

    - {b close-to-open caching}: attributes are cached for a bounded
      TTL; opens past the TTL cost a GETATTR (the metadata storm that
      dominates EECS). Data is cached per file; a changed server mtime
      invalidates the {e whole} file (NFS's file-granularity model),
      which is what forces CAMPUS clients to re-read multi-megabyte
      inboxes after every delivery (§6.1.2);
    - {b nfsiod scheduling}: calls are handed to asynchronous I/O
      daemons whose dispatch order depends on the process scheduler, so
      wire order differs from issue order (§4.1.5). With one nfsiod
      no reordering occurs; more nfsiods reorder more;
    - {b read-ahead/pipelining}: bulk transfers issue back-to-back
      rsize/wsize chunks rather than waiting out a full RTT each.

    A client speaks one protocol version (EECS mixes v2 and v3 clients;
    CAMPUS is all v3). Sessions carry per-user credentials and their own
    clock cursor, so many sessions of one client interleave. *)

type config = {
  ip : Nt_net.Ip_addr.t;
  version : int;  (** 2 or 3 *)
  rtt : float;  (** network round-trip, seconds *)
  service_time : float;  (** server think time per call *)
  attr_ttl : float;  (** attribute cache timeout *)
  nfsiods : int;
  reorder_prob : float;  (** chance a call is delayed while the client is congested *)
  reorder_mean : float;  (** mean extra delay when delayed, seconds *)
  reorder_cap : float;  (** congestion delays are bounded by queue depth *)
  rsize : int;
  wsize : int;
  cache_capacity : int;  (** bytes of file data the client may cache (LRU) *)
}

val default_config : ip:Nt_net.Ip_addr.t -> version:int -> config

type t

val create : config -> server:Server.t -> sink:(Nt_trace.Record.t -> unit) -> rng:Nt_util.Prng.t -> t

val config : t -> config

type session

val session : t -> time:float -> uid:int -> gid:int -> session
val now : session -> float
val set_now : session -> float -> unit

(** All operations emit the wire calls they would cost on a real
    client, advance the session clock by the time those calls take, and
    return what the application would see. *)

val lookup_path : session -> string list -> Nt_nfs.Fh.t option
(** Resolve from the root, using the directory-name cache; misses cost
    LOOKUP calls. *)

val getattr : session -> Nt_nfs.Fh.t -> Nt_nfs.Types.fattr option
(** Unconditional wire GETATTR (cache refresh). *)

val open_file : session -> Nt_nfs.Fh.t -> [ `Cached | `Changed | `Error ]
(** Close-to-open open: revalidate attributes (GETATTR when the cache
    has expired, plus ACCESS for v3), invalidate cached data on mtime
    change. [`Cached] means cached data is still usable. *)

val read : session -> Nt_nfs.Fh.t -> offset:int64 -> len:int -> int
(** Application read. Satisfied from cache silently when valid;
    otherwise issues chunked READ calls and caches. Returns bytes the
    application got. *)

val read_whole : session -> Nt_nfs.Fh.t -> int
(** Read a file beginning to end (size from cached attributes). *)

val write : session -> Nt_nfs.Fh.t -> offset:int64 -> len:int -> sync:bool -> unit
(** Chunked WRITE calls ([sync] = FILE_SYNC, else UNSTABLE + COMMIT on
    v3). *)

val append : session -> Nt_nfs.Fh.t -> len:int -> sync:bool -> unit
(** Write at current EOF (per cached size, refreshing if stale). *)

val truncate : session -> Nt_nfs.Fh.t -> int64 -> unit
val create_file : session -> dir:Nt_nfs.Fh.t -> name:string -> ?exclusive:bool -> mode:int -> unit -> Nt_nfs.Fh.t option
val mkdir : session -> dir:Nt_nfs.Fh.t -> name:string -> mode:int -> Nt_nfs.Fh.t option
val symlink : session -> dir:Nt_nfs.Fh.t -> name:string -> target:string -> unit
val remove : session -> dir:Nt_nfs.Fh.t -> name:string -> unit
val rmdir : session -> dir:Nt_nfs.Fh.t -> name:string -> unit
val rename : session -> from_dir:Nt_nfs.Fh.t -> from_name:string -> to_dir:Nt_nfs.Fh.t -> to_name:string -> unit
val readdir : session -> Nt_nfs.Fh.t -> Nt_nfs.Ops.dir_entry list
(** Full listing (paginated READDIR / READDIRPLUS on v3). *)

val cached_size : session -> Nt_nfs.Fh.t -> int64 option
(** Size per the attribute cache, without wire traffic. *)

val invalidate : t -> Nt_nfs.Fh.t -> unit
(** Drop cached state for a handle (e.g. after local truncation). *)
