(** ONC RPC version 2 message layer (RFC 5531).

    Every NFS call and reply travels inside one of these messages. The
    tracer only ever sees bytes on the wire, so this module provides both
    directions: the simulator encodes, the capture engine decodes.

    The message *body* (procedure arguments or results) is carried as an
    opaque region: its interpretation depends on (program, version,
    procedure), which is the job of [Nt_nfs]. Decoding therefore returns
    the offset at which the body starts. *)

type auth_flavor =
  | Auth_null
  | Auth_unix of { stamp : int; machine : string; uid : int; gid : int; gids : int list }
  | Auth_other of int * string
      (** flavor number, raw body — preserved but not interpreted. *)

type call = {
  xid : int;
  rpcvers : int;  (** always 2 on the wire; preserved to detect garbage *)
  prog : int;
  vers : int;
  proc : int;
  cred : auth_flavor;
  verf : auth_flavor;
}

type reject_reason =
  | Rpc_mismatch of int * int  (** low, high supported versions *)
  | Auth_error of int

type accept_status =
  | Success
  | Prog_unavail
  | Prog_mismatch of int * int
  | Proc_unavail
  | Garbage_args
  | System_err

type reply = { xid : int; verf : auth_flavor; status : reply_status }
and reply_status = Accepted of accept_status | Denied of reject_reason

type msg = Call of call | Reply of reply

val nfs_program : int
(** 100003, the NFS program number. *)

val encode_call : Nt_xdr.Encode.t -> call -> unit
(** Writes the call header; the caller appends the procedure arguments. *)

val encode_reply : Nt_xdr.Encode.t -> reply -> unit
(** Writes the reply header; the caller appends results when the status
    is [Accepted Success]. *)

(** {1 Decoding}

    One pass, {!read_header}, reads a message header into a reused
    {!header}: the capture engine's per-message path, which allocates
    nothing. {!decode} builds a {!msg} from the same pass. *)

type auth = private {
  mutable flavor : int;
  mutable body : int;  (** absolute offset of the opaque body *)
  mutable body_len : int;
  mutable stamp : int;  (** the AUTH_UNIX fields, set when [flavor = 1] *)
  mutable machine : int;  (** absolute offset of the machine name's bytes *)
  mutable machine_len : int;
  mutable uid : int;  (** 0 unless [flavor = 1], like [gid] *)
  mutable gid : int;
  mutable gids : int;  (** absolute offset of the first supplementary gid *)
  mutable ngids : int;
}
(** Where an auth field's parts lie in the decoded string. *)

type header = private {
  mutable xid : int;
  mutable is_call : bool;
  mutable prog : int;  (** call fields, like [vers], [proc] and [cred] *)
  mutable vers : int;
  mutable proc : int;
  cred : auth;
  verf : auth;  (** flavor 0 on a denied reply, which carries none *)
  mutable accepted : bool;  (** reply fields: MSG_ACCEPTED, else MSG_DENIED *)
  mutable stat : int;  (** accept_stat or reject_stat *)
  mutable lo : int;  (** mismatch low version, or AUTH_ERROR's auth_stat *)
  mutable hi : int;  (** mismatch high version *)
  mutable body : int;  (** absolute offset of the first body byte *)
}
(** One message header, overwritten by each {!read_header}. *)

val create_header : unit -> header

val read_header : header -> Nt_xdr.Decode.t -> unit
(** Read the header at the decoder's cursor, leaving the cursor at the
    body. Raises [Nt_xdr.Decode.Error] on malformed input; [h] then
    holds a partial header. *)

val success : header -> bool
(** A reply accepted with status SUCCESS: its body holds results. *)

val decode : string -> pos:int -> len:int -> msg * int
(** [decode s ~pos ~len] parses one RPC message from [s.(pos .. pos+len)]
    and returns it with the absolute offset of the first body byte.
    Raises [Nt_xdr.Decode.Error] on malformed input, exactly where
    {!read_header} does. *)
