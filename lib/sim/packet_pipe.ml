module Record = Nt_trace.Record
module Rpc = Nt_rpc.Rpc_msg
module Rm = Nt_rpc.Record_mark
module Frame = Nt_net.Frame
module Pcap = Nt_net.Pcap
module E = Nt_xdr.Encode
module Prng = Nt_util.Prng

type transport = Udp_transport | Tcp_transport

let nfs_port = 2049

(* Bounded-window sorter for (time, frame) pairs; packets from one
   record interleave in time with the next record's. *)
module Psort = struct
  type entry = { at : float; seq : int; frame : string }

  type t = {
    mutable heap : entry array;
    mutable size : int;
    horizon : float;
    emit : float -> string -> unit;
    mutable max_seen : float;
    mutable next_seq : int;
  }

  let dummy = { at = 0.; seq = 0; frame = "" }

  let create ~horizon emit =
    { heap = Array.make 4096 dummy; size = 0; horizon; emit; max_seen = neg_infinity; next_seq = 0 }

  let less a b = a.at < b.at || (a.at = b.at && a.seq < b.seq)

  let swap t i j =
    let tmp = t.heap.(i) in
    t.heap.(i) <- t.heap.(j);
    t.heap.(j) <- tmp

  let rec sift_up t i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if less t.heap.(i) t.heap.(parent) then begin
        swap t i parent;
        sift_up t parent
      end
    end

  let rec sift_down t i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < t.size && less t.heap.(l) t.heap.(!smallest) then smallest := l;
    if r < t.size && less t.heap.(r) t.heap.(!smallest) then smallest := r;
    if !smallest <> i then begin
      swap t i !smallest;
      sift_down t !smallest
    end

  let release_until t threshold =
    while t.size > 0 && t.heap.(0).at <= threshold do
      let top = t.heap.(0) in
      t.size <- t.size - 1;
      t.heap.(0) <- t.heap.(t.size);
      t.heap.(t.size) <- dummy;
      sift_down t 0;
      t.emit top.at top.frame
    done

  let push t at frame =
    if t.size = Array.length t.heap then begin
      let bigger = Array.make (2 * t.size) dummy in
      Array.blit t.heap 0 bigger 0 t.size;
      t.heap <- bigger
    end;
    t.heap.(t.size) <- { at; seq = t.next_seq; frame };
    t.next_seq <- t.next_seq + 1;
    t.size <- t.size + 1;
    sift_up t (t.size - 1);
    if at > t.max_seen then t.max_seen <- at;
    release_until t (t.max_seen -. t.horizon)

  let flush t = release_until t infinity
end

type flow_state = { mutable seq : int; mutable started : bool }

type t = {
  transport : transport;
  rng : Prng.t;
  mtu : int;
  sorter : Psort.t;
  (* TCP sequence state, keyed by (src ip, dst ip). *)
  flows : (int * int, flow_state) Hashtbl.t;
  injector : Fault.t;
  c_written : Nt_obs.Obs.counter;
}

let create ?obs ?(fault = Fault.none) ?(seed = 77L) ?(mtu = 9000) ~transport ~writer () =
  (* The written/dropped accessors feed the conservation invariant, so
     the default registry must count: a private enabled one. *)
  let obs = match obs with Some o -> o | None -> Nt_obs.Obs.create () in
  let rng = Prng.create seed in
  (* The injector gets its own derived stream so that enabling faults
     does not perturb the flow ISNs drawn from [rng]. *)
  let injector = Fault.create ~obs ~seed:(Prng.next_int64 (Prng.copy rng)) fault in
  let c_written =
    Nt_obs.Obs.counter obs ~help:"packets written to the capture" "pipe.packets_written"
  in
  let emit at frame =
    match Fault.apply injector ~time:at frame with
    | [ (t, bytes) ] ->
        Pcap.write writer ~time:t bytes;
        Nt_obs.Obs.inc c_written
    | out ->
        List.iter
          (fun (t, bytes) ->
            Pcap.write writer ~time:t bytes;
            Nt_obs.Obs.inc c_written)
          out
  in
  {
    transport;
    rng;
    mtu;
    sorter = Psort.create ~horizon:630. emit;
    flows = Hashtbl.create 64;
    injector;
    c_written;
  }

let client_port ip = 600 + (ip land 0x3FF)

let encode_call_msg (r : Record.t) =
  let e = E.create ~initial_size:512 () in
  let proc = Record.proc r in
  let proc_num =
    match Nt_nfs.Proc.number ~version:r.version proc with Some n -> n | None -> 0
  in
  Rpc.encode_call e
    {
      xid = r.xid;
      rpcvers = 2;
      prog = Rpc.nfs_program;
      vers = r.version;
      proc = proc_num;
      cred =
        Auth_unix { stamp = 0; machine = "client"; uid = r.uid; gid = r.gid; gids = [ r.gid ] };
      verf = Auth_null;
    };
  (if r.version = 2 then Nt_nfs.V2.encode_call e r.call else Nt_nfs.V3.encode_call e r.call);
  E.contents e

let encode_reply_msg (r : Record.t) result =
  let e = E.create ~initial_size:512 () in
  Rpc.encode_reply e { xid = r.xid; verf = Auth_null; status = Accepted Success };
  let proc = Record.proc r in
  (if r.version = 2 then Nt_nfs.V2.encode_result e ~proc result
   else Nt_nfs.V3.encode_result e ~proc result);
  E.contents e

let flow t ~src ~dst =
  match Hashtbl.find_opt t.flows (src, dst) with
  | Some f -> f
  | None ->
      let f = { seq = Prng.bits30 t.rng land 0xFFFFFF; started = false } in
      Hashtbl.add t.flows (src, dst) f;
      f

let push_udp t ~at ~src ~dst ~src_port ~dst_port msg =
  let frame =
    Frame.encode (Frame.udp ~src_ip:src ~dst_ip:dst ~src_port ~dst_port msg)
  in
  Psort.push t.sorter at frame

let push_tcp t ~at ~src ~dst ~src_port ~dst_port msg =
  let f = flow t ~src ~dst in
  if not f.started then begin
    f.started <- true;
    let syn =
      Frame.encode
        (Frame.tcp ~syn:true ~src_ip:src ~dst_ip:dst ~src_port ~dst_port ~seq:f.seq "")
    in
    Psort.push t.sorter (at -. 0.000001) syn;
    f.seq <- (f.seq + 1) land 0xFFFFFFFF
  end;
  let stream = Rm.frame msg in
  let mss = t.mtu - 40 in
  let n = String.length stream in
  let off = ref 0 in
  let k = ref 0 in
  while !off < n do
    let len = min mss (n - !off) in
    let segment = String.sub stream !off len in
    let frame =
      Frame.encode
        (Frame.tcp ~src_ip:src ~dst_ip:dst ~src_port ~dst_port ~seq:f.seq segment)
    in
    (* Successive segments of one message are microseconds apart. *)
    Psort.push t.sorter (at +. (float_of_int !k *. 2e-6)) frame;
    f.seq <- (f.seq + len) land 0xFFFFFFFF;
    off := !off + len;
    incr k
  done

let push t (r : Record.t) =
  let src_port = client_port r.client in
  let send ~at ~src ~dst ~sp ~dp msg =
    match t.transport with
    | Udp_transport -> push_udp t ~at ~src ~dst ~src_port:sp ~dst_port:dp msg
    | Tcp_transport -> push_tcp t ~at ~src ~dst ~src_port:sp ~dst_port:dp msg
  in
  let call_msg = encode_call_msg r in
  send ~at:r.time ~src:r.client ~dst:r.server ~sp:src_port ~dp:nfs_port call_msg;
  match (r.reply_time, r.result) with
  | Some rt, Some result ->
      let reply_msg = encode_reply_msg r result in
      send ~at:rt ~src:r.server ~dst:r.client ~sp:nfs_port ~dp:src_port reply_msg
  | _ -> ()

let finish t = Psort.flush t.sorter
let packets_written t = Nt_obs.Obs.value t.c_written
let packets_dropped t = (Fault.counts t.injector).dropped
let faults t = Fault.counts t.injector
