module Types = Nt_nfs.Types
module Ops = Nt_nfs.Ops
module Fh = Nt_nfs.Fh
module Record = Nt_trace.Record
module Prng = Nt_util.Prng

type config = {
  ip : Nt_net.Ip_addr.t;
  version : int;
  rtt : float;
  service_time : float;
  attr_ttl : float;
  nfsiods : int;
  reorder_prob : float;
  reorder_mean : float;
  reorder_cap : float;
  rsize : int;
  wsize : int;
  cache_capacity : int;  (* bytes of file data the client can cache *)
}

let default_config ~ip ~version =
  {
    ip;
    version;
    rtt = 0.0008;
    service_time = 0.0002;
    attr_ttl = 10.;
    nfsiods = 4;
    reorder_prob = 0.8;
    reorder_mean = 0.002;
    reorder_cap = 0.008;
    rsize = 8192;
    wsize = 8192;
    cache_capacity = 256 * 1024 * 1024;
  }

type cached = {
  mutable attr : Types.fattr option;
  mutable attr_expires : float;
  mutable data_valid : bool;
  mutable data_mtime : Types.time;  (* server mtime the cached data corresponds to *)
  mutable charged : int;  (* bytes charged against the cache capacity *)
  mutable last_used : float;
}

module Fh_tbl = Hashtbl.Make (struct
  type t = Fh.t

  let equal = Fh.equal
  let hash = Fh.hash
end)

type t = {
  config : config;
  server : Server.t;
  sink : Record.t -> unit;
  rng : Prng.t;
  cache : cached Fh_tbl.t;
  (* directory name lookup cache: (dir, name) -> (fh, expires) *)
  dnlc : (string * string, Fh.t * float) Hashtbl.t;
  mutable xid : int;
  mutable congested : bool;
  mutable cached_bytes : int;
}

let create config ~server ~sink ~rng =
  {
    config;
    server;
    sink;
    rng;
    cache = Fh_tbl.create 512;
    dnlc = Hashtbl.create 512;
    xid = Prng.bits30 rng;
    congested = false;
    cached_bytes = 0;
  }

type session = { client : t; mutable now : float; uid : int; gid : int }

let session t ~time ~uid ~gid = { client = t; now = time; uid; gid }
let now s = s.now
let set_now s time = s.now <- time
let config t = t.config

let entry t fh =
  match Fh_tbl.find_opt t.cache fh with
  | Some e -> e
  | None ->
      let e =
        { attr = None; attr_expires = neg_infinity; data_valid = false;
          data_mtime = { Types.seconds = 0; nanos = 0 }; charged = 0; last_used = neg_infinity }
      in
      Fh_tbl.add t.cache fh e;
      e

let uncharge t e =
  t.cached_bytes <- t.cached_bytes - e.charged;
  e.charged <- 0

let invalidate t fh =
  match Fh_tbl.find_opt t.cache fh with
  | Some e ->
      e.attr <- None;
      e.attr_expires <- neg_infinity;
      e.data_valid <- false;
      uncharge t e
  | None -> ()

(* LRU capacity eviction: workstation memory is finite, so cached file
   data ages out; the next access re-reads from the server. This is the
   mechanism behind the residual read traffic on EECS. *)
let evict_to_fit t =
  if t.cached_bytes > t.config.cache_capacity then begin
    let victims =
      Fh_tbl.fold (fun _ e acc -> if e.data_valid then (e.last_used, e) :: acc else acc) t.cache []
      |> List.sort (fun (a, _) (b, _) -> Float.compare a b)
    in
    let target = t.config.cache_capacity * 3 / 4 in
    List.iter
      (fun (_, e) ->
        if t.cached_bytes > target then begin
          e.data_valid <- false;
          uncharge t e
        end)
      victims
  end

let mark_data_valid t e ~now =
  e.data_valid <- true;
  e.last_used <- now;
  let size =
    match e.attr with Some a -> Int64.to_int (Int64.min a.size 1_000_000_000L) | None -> 8192
  in
  t.cached_bytes <- t.cached_bytes - e.charged + size;
  e.charged <- size;
  evict_to_fit t

(* nfsiod dispatch delay. Reordering on real clients is bursty: while
   the daemons are contended (busy periods of the workstation) many
   calls are displaced by a few milliseconds; in quiet periods almost
   none are. A two-state Markov model captures this: with more nfsiods
   the client enters congestion more often. Rare scheduler starvation
   delays a call up to a second (the paper observed exactly that). *)
let dispatch_jitter t =
  let k = t.config.nfsiods in
  if k <= 1 then 0.
  else begin
    (if t.congested then begin
       if Prng.chance t.rng 0.005 then t.congested <- false
     end
     else if Prng.chance t.rng (0.0002 *. float_of_int (k - 1)) then t.congested <- true);
    if Prng.chance t.rng 0.0004 then 0.02 +. Prng.float t.rng 0.98
    else if t.congested && Prng.chance t.rng t.config.reorder_prob then
      Float.min t.config.reorder_cap
        (Nt_util.Dist.exponential t.rng ~rate:(1. /. t.config.reorder_mean))
    else Prng.float t.rng 0.0001
  end

(* Issue one call: the wire time includes dispatch jitter; the session
   clock advances to the reply's arrival. [pipelined] spaces bulk
   chunks by a fraction of the RTT instead of a full round trip. *)
let issue ?(pipelined = false) s (call : Ops.call) : Ops.result =
  let t = s.client in
  let jitter = dispatch_jitter t in
  let wire_time = s.now +. jitter in
  let result = Server.handle t.server ~time:wire_time call in
  let reply_time = wire_time +. t.config.service_time +. (t.config.rtt /. 2.) in
  t.xid <- (t.xid + 1) land 0xFFFFFFFF;
  t.sink
    {
      Record.time = wire_time;
      reply_time = Some reply_time;
      client = t.config.ip;
      server = Server.ip t.server;
      version = t.config.version;
      xid = t.xid;
      uid = s.uid;
      gid = s.gid;
      call;
      result = Some result;
    };
  s.now <-
    (if pipelined then s.now +. (t.config.rtt /. 4.) +. t.config.service_time
     else s.now +. t.config.rtt +. t.config.service_time);
  result

let update_attr_cache t e ~now (attr : Types.fattr option) =
  match attr with
  | None -> ()
  | Some a ->
      (match e.attr with
      | Some prev when prev.mtime <> a.mtime -> e.data_valid <- false
      | _ -> ());
      e.attr <- Some a;
      e.attr_expires <- now +. t.config.attr_ttl

let getattr s fh =
  let t = s.client in
  match issue s (Ops.Getattr fh) with
  | Ok (R_attr a) ->
      let e = entry t fh in
      update_attr_cache t e ~now:s.now (Some a);
      Some a
  | Ok _ | Error _ ->
      invalidate t fh;
      None

let fresh_attr s fh =
  let t = s.client in
  let e = entry t fh in
  if s.now <= e.attr_expires then e.attr
  else
    match getattr s fh with Some a -> Some a | None -> None

let open_file s fh =
  let t = s.client in
  let e = entry t fh in
  let had_valid_data = e.data_valid in
  let result =
    if s.now <= e.attr_expires then if e.data_valid then `Cached else `Changed
    else begin
      match getattr s fh with
      | None -> `Error
      | Some a ->
          if e.data_valid && a.mtime = e.data_mtime then `Cached
          else begin
            e.data_valid <- false;
            `Changed
          end
    end
  in
  (* v3 clients check permissions at open. *)
  if t.config.version >= 3 && result <> `Error then ignore (issue s (Ops.Access { fh; access = 0x3F }));
  ignore had_valid_data;
  result

let cached_size s fh =
  let e = entry s.client fh in
  Option.map (fun (a : Types.fattr) -> a.size) e.attr

let read s fh ~offset ~len =
  let t = s.client in
  let e = entry t fh in
  if len <= 0 then 0
  else if e.data_valid && s.now <= e.attr_expires then begin
    (* Served entirely from the client cache: invisible to the server. *)
    e.last_used <- s.now;
    match e.attr with
    | Some a ->
        let size = a.size in
        if Int64.compare offset size >= 0 then 0
        else Int64.to_int (Int64.min (Int64.of_int len) (Int64.sub size offset))
    | None -> 0
  end
  else begin
    let chunk = t.config.rsize in
    let got = ref 0 in
    let off = ref offset in
    let remaining = ref len in
    let eof = ref false in
    while (not !eof) && !remaining > 0 do
      let want = min chunk !remaining in
      match issue ~pipelined:true s (Ops.Read { fh; offset = !off; count = want }) with
      | Ok (R_read { attr; count; eof = server_eof }) ->
          got := !got + count;
          off := Int64.add !off (Int64.of_int count);
          remaining := !remaining - count;
          if server_eof || count = 0 then eof := true;
          update_attr_cache t e ~now:s.now attr;
          (match attr with Some a -> e.data_mtime <- a.mtime | None -> ())
      | Ok _ | Error _ ->
          eof := true;
          invalidate t fh
    done;
    (* Reading to EOF makes the cache whole (the client already held
       the prefix, or just fetched it). *)
    if
      !eof
      || (match e.attr with
         | Some a -> Int64.compare (Int64.add offset (Int64.of_int len)) a.size >= 0
         | None -> false)
    then mark_data_valid t e ~now:s.now;
    !got
  end

let read_whole s fh =
  let size =
    match fresh_attr s fh with Some a -> Int64.to_int a.size | None -> 0
  in
  if size = 0 then 0 else read s fh ~offset:0L ~len:size

let write s fh ~offset ~len ~sync =
  let t = s.client in
  if len > 0 then begin
    let e = entry t fh in
    let chunk = t.config.wsize in
    let stable =
      if t.config.version >= 3 then if sync then Types.File_sync else Types.Unstable
      else Types.File_sync
    in
    let off = ref offset in
    let remaining = ref len in
    while !remaining > 0 do
      (* Chunks after the first align to wsize boundaries, as real
         clients' page cache flushing does. *)
      let to_boundary = chunk - (Int64.to_int (Int64.rem !off (Int64.of_int chunk))) in
      let n = min to_boundary !remaining in
      (match issue ~pipelined:true s (Ops.Write { fh; offset = !off; count = n; stable }) with
      | Ok (R_write { attr; _ }) ->
          update_attr_cache t e ~now:s.now attr;
          (match attr with Some a -> e.data_mtime <- a.mtime | None -> ())
      | Ok _ | Error _ -> invalidate t fh);
      off := Int64.add !off (Int64.of_int n);
      remaining := !remaining - n
    done;
    if t.config.version >= 3 && not sync then
      ignore (issue s (Ops.Commit { fh; offset; count = len }));
    (* The writer's own cache stays coherent with its writes. *)
    if e.data_valid || Int64.equal offset 0L then mark_data_valid t e ~now:s.now
  end

let append s fh ~len ~sync =
  let size = match fresh_attr s fh with Some a -> a.size | None -> 0L in
  write s fh ~offset:size ~len ~sync

let truncate s fh new_size =
  let t = s.client in
  (match issue s (Ops.Setattr { fh; attrs = { Types.empty_sattr with set_size = Some new_size } })
   with
  | Ok (R_attr a) ->
      let e = entry t fh in
      update_attr_cache t e ~now:s.now (Some a);
      e.data_mtime <- a.mtime;
      mark_data_valid t e ~now:s.now
  | Ok _ | Error _ -> invalidate t fh);
  ()

let dnlc_key dir name = (Fh.to_hex_full dir, name)

let learn_binding s ~dir ~name fh attr =
  let t = s.client in
  Hashtbl.replace t.dnlc (dnlc_key dir name) (fh, s.now +. t.config.attr_ttl);
  let e = entry t fh in
  update_attr_cache t e ~now:s.now attr

let lookup_one s ~dir ~name =
  let t = s.client in
  match Hashtbl.find_opt t.dnlc (dnlc_key dir name) with
  | Some (fh, expires) when s.now <= expires -> Some fh
  | _ -> (
      match issue s (Ops.Lookup { dir; name }) with
      | Ok (R_lookup { fh; obj; _ }) ->
          learn_binding s ~dir ~name fh obj;
          Some fh
      | Ok _ | Error _ ->
          Hashtbl.remove t.dnlc (dnlc_key dir name);
          None)

let lookup_path s path =
  let t = s.client in
  let root = Server.root_fh t.server in
  let rec go dir = function
    | [] -> Some dir
    | name :: rest -> (
        match lookup_one s ~dir ~name with Some fh -> go fh rest | None -> None)
  in
  go root path

let create_file s ~dir ~name ?(exclusive = false) ~mode () =
  let t = s.client in
  match issue s (Ops.Create { dir; name; mode; exclusive }) with
  | Ok (R_create { fh = Some fh; attr }) ->
      learn_binding s ~dir ~name fh attr;
      let e = entry t fh in
      (match attr with Some a -> e.data_mtime <- a.mtime | None -> ());
      mark_data_valid t e ~now:s.now;
      Some fh
  | Ok _ | Error _ -> None

let mkdir s ~dir ~name ~mode =
  match issue s (Ops.Mkdir { dir; name; mode }) with
  | Ok (R_create { fh = Some fh; attr }) ->
      learn_binding s ~dir ~name fh attr;
      Some fh
  | Ok _ | Error _ -> None

let symlink s ~dir ~name ~target = ignore (issue s (Ops.Symlink { dir; name; target }))

let remove s ~dir ~name =
  let t = s.client in
  (match Hashtbl.find_opt t.dnlc (dnlc_key dir name) with
  | Some (fh, _) -> invalidate t fh
  | None -> ());
  Hashtbl.remove t.dnlc (dnlc_key dir name);
  ignore (issue s (Ops.Remove { dir; name }))

let rmdir s ~dir ~name =
  Hashtbl.remove s.client.dnlc (dnlc_key dir name);
  ignore (issue s (Ops.Rmdir { dir; name }))

let rename s ~from_dir ~from_name ~to_dir ~to_name =
  let t = s.client in
  (match Hashtbl.find_opt t.dnlc (dnlc_key from_dir from_name) with
  | Some (fh, expires) -> Hashtbl.replace t.dnlc (dnlc_key to_dir to_name) (fh, expires)
  | None -> ());
  Hashtbl.remove t.dnlc (dnlc_key from_dir from_name);
  ignore (issue s (Ops.Rename { from_dir; from_name; to_dir; to_name }))

let readdir s dir =
  let t = s.client in
  let page = 4096 in
  let rec go cookie acc =
    let call =
      if t.config.version >= 3 then Ops.Readdirplus { dir; cookie; count = page }
      else Ops.Readdir { dir; cookie; count = page }
    in
    match issue s call with
    | Ok (R_readdir { entries; eof }) ->
        let acc = List.rev_append entries acc in
        if eof then List.rev acc
        else begin
          match List.rev entries with
          | last :: _ -> go last.entry_cookie acc
          | [] -> List.rev acc
        end
    | Ok _ | Error _ -> List.rev acc
  in
  go 0L []
