module E = Nt_xdr.Encode
module D = Nt_xdr.Decode

type auth_flavor =
  | Auth_null
  | Auth_unix of { stamp : int; machine : string; uid : int; gid : int; gids : int list }
  | Auth_other of int * string

type call = {
  xid : int;
  rpcvers : int;
  prog : int;
  vers : int;
  proc : int;
  cred : auth_flavor;
  verf : auth_flavor;
}

type reject_reason = Rpc_mismatch of int * int | Auth_error of int

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

let nfs_program = 100003
let msg_type_call = 0
let msg_type_reply = 1

let encode_auth e = function
  | Auth_null ->
      E.uint32 e 0;
      E.uint32 e 0
  | Auth_unix { stamp; machine; uid; gid; gids } ->
      E.uint32 e 1;
      let body = E.create ~initial_size:64 () in
      E.uint32 body stamp;
      E.string body machine;
      E.uint32 body uid;
      E.uint32 body gid;
      E.array body (E.uint32 body) gids;
      E.opaque e (E.contents body)
  | Auth_other (flavor, body) ->
      E.uint32 e flavor;
      E.opaque e body

let encode_call e (c : call) =
  E.uint32 e c.xid;
  E.uint32 e msg_type_call;
  E.uint32 e c.rpcvers;
  E.uint32 e c.prog;
  E.uint32 e c.vers;
  E.uint32 e c.proc;
  encode_auth e c.cred;
  encode_auth e c.verf

let encode_reply e (r : reply) =
  E.uint32 e r.xid;
  E.uint32 e msg_type_reply;
  match r.status with
  | Accepted st -> (
      E.uint32 e 0;
      encode_auth e r.verf;
      match st with
      | Success -> E.uint32 e 0
      | Prog_unavail -> E.uint32 e 1
      | Prog_mismatch (lo, hi) ->
          E.uint32 e 2;
          E.uint32 e lo;
          E.uint32 e hi
      | Proc_unavail -> E.uint32 e 3
      | Garbage_args -> E.uint32 e 4
      | System_err -> E.uint32 e 5)
  | Denied reason -> (
      E.uint32 e 1;
      match reason with
      | Rpc_mismatch (lo, hi) ->
          E.uint32 e 0;
          E.uint32 e lo;
          E.uint32 e hi
      | Auth_error stat ->
          E.uint32 e 1;
          E.uint32 e stat)

(* --- decoding: one pass into a reused header --- *)

type auth = {
  mutable flavor : int;
  mutable body : int;
  mutable body_len : int;
  mutable stamp : int;
  mutable machine : int;
  mutable machine_len : int;
  mutable uid : int;
  mutable gid : int;
  mutable gids : int;
  mutable ngids : int;
}

type header = {
  mutable xid : int;
  mutable is_call : bool;
  mutable prog : int;
  mutable vers : int;
  mutable proc : int;
  cred : auth;
  verf : auth;
  mutable accepted : bool;
  mutable stat : int;
  mutable lo : int;
  mutable hi : int;
  mutable body : int;
}

let auth () =
  { flavor = 0; body = 0; body_len = 0; stamp = 0; machine = 0; machine_len = 0; uid = 0;
    gid = 0; gids = 0; ngids = 0 }

let create_header () =
  { xid = 0; is_call = false; prog = 0; vers = 0; proc = 0; cred = auth (); verf = auth ();
    accepted = false; stat = 0; lo = 0; hi = 0; body = 0 }

(* The auth body is read in place: AUTH_UNIX's fields are located and
   bounds-checked within the opaque, never copied. *)
let read_auth (a : auth) d =
  a.flavor <- D.uint32 d;
  a.body_len <- D.opaque_window d;
  a.body <- D.pos d;
  if a.flavor = 1 then begin
    a.stamp <- D.uint32 d;
    a.machine <- D.pos d + 4;
    a.machine_len <- D.skip_opaque d;
    a.uid <- D.uint32 d;
    a.gid <- D.uint32 d;
    a.gids <- D.pos d + 4;
    a.ngids <- D.skip_uint32_array d
  end
  else begin
    a.uid <- 0;
    a.gid <- 0
  end;
  D.close_window d

let read_header h d =
  h.xid <- D.uint32 d;
  (match D.uint32 d with
  | 0 ->
      h.is_call <- true;
      let rpcvers = D.uint32 d in
      if rpcvers <> 2 then raise (D.Error (Printf.sprintf "unsupported RPC version %d" rpcvers));
      h.prog <- D.uint32 d;
      h.vers <- D.uint32 d;
      h.proc <- D.uint32 d;
      read_auth h.cred d;
      read_auth h.verf d
  | 1 -> (
      h.is_call <- false;
      match D.uint32 d with
      | 0 -> (
          h.accepted <- true;
          read_auth h.verf d;
          h.stat <- D.uint32 d;
          match h.stat with
          | 0 | 1 | 3 | 4 | 5 -> ()
          | 2 ->
              h.lo <- D.uint32 d;
              h.hi <- D.uint32 d
          | n -> raise (D.Error (Printf.sprintf "bad accept status %d" n)))
      | 1 -> (
          h.accepted <- false;
          h.verf.flavor <- 0;
          h.stat <- D.uint32 d;
          match h.stat with
          | 0 ->
              h.lo <- D.uint32 d;
              h.hi <- D.uint32 d
          | 1 -> h.lo <- D.uint32 d
          | n -> raise (D.Error (Printf.sprintf "bad reject status %d" n)))
      | n -> raise (D.Error (Printf.sprintf "bad reply status %d" n)))
  | n -> raise (D.Error (Printf.sprintf "bad message type %d" n)));
  h.body <- D.pos d

let success h = (not h.is_call) && h.accepted && h.stat = 0

(* [decode] materializes what [read_header] located. *)
let uint32_at s pos = Int32.to_int (String.get_int32_be s pos) land 0xFFFF_FFFF

let auth_flavor s (a : auth) =
  match a.flavor with
  | 0 -> Auth_null
  | 1 ->
      Auth_unix
        { stamp = a.stamp; machine = String.sub s a.machine a.machine_len; uid = a.uid;
          gid = a.gid; gids = List.init a.ngids (fun i -> uint32_at s (a.gids + (4 * i))) }
  | n -> Auth_other (n, String.sub s a.body a.body_len)
[@@nt.alloc_ok "materializes a decoded msg's auth fields; the capture path reads the header \
                instead"]

let reply_status h =
  if h.accepted then
    Accepted
      (match h.stat with
      | 0 -> Success
      | 1 -> Prog_unavail
      | 2 -> Prog_mismatch (h.lo, h.hi)
      | 3 -> Proc_unavail
      | 4 -> Garbage_args
      | _ -> System_err)
  else Denied (if h.stat = 0 then Rpc_mismatch (h.lo, h.hi) else Auth_error h.lo)

let decode s ~pos ~len =
  let h = create_header () in
  read_header h (D.of_string ~pos ~len s);
  let msg =
    if h.is_call then
      Call
        { xid = h.xid; rpcvers = 2; prog = h.prog; vers = h.vers; proc = h.proc;
          cred = auth_flavor s h.cred; verf = auth_flavor s h.verf }
    else Reply { xid = h.xid; verf = auth_flavor s h.verf; status = reply_status h }
  in
  (msg, h.body)
