module Record = Nt_trace.Record
module Proc = Nt_nfs.Proc
module Types = Nt_nfs.Types
module Ops = Nt_nfs.Ops
module Fh = Nt_nfs.Fh
module Ip_addr = Nt_net.Ip_addr

type caps = { client_cap : int; uid_cap : int; fs_cap : int; proc_cap : int }

let default_caps = { client_cap = 256; uid_cap = 256; fs_cap = 64; proc_cap = 64 }

type row = { ops : int; read_bytes : int; write_bytes : int }

let zero_row = { ops = 0; read_bytes = 0; write_bytes = 0 }

let add_row a b =
  {
    ops = a.ops + b.ops;
    read_bytes = a.read_bytes + b.read_bytes;
    write_bytes = a.write_bytes + b.write_bytes;
  }

type table = [ `Client | `Uid | `Fs | `Proc ]

let table_name = function
  | `Client -> "client"
  | `Uid -> "uid"
  | `Fs -> "fs"
  | `Proc -> "proc"

let all_tables = [ `Client; `Uid; `Fs; `Proc ]

(* A capped breakdown table. [rows] never grows past [cap] through
   [bump] — newcomers beyond the cap land in [other]. [absorb] (merge)
   is exact and may overshoot; [compact_tbl] restores the bound. *)
type tbl = {
  cap : int;
  rows : (string, row) Hashtbl.t;
  mutable other : row;
  mutable evicted : int;
}

let tbl_create cap = { cap; rows = Hashtbl.create 16; other = zero_row; evicted = 0 }

let bump tbl key row =
  match Hashtbl.find_opt tbl.rows key with
  | Some r -> Hashtbl.replace tbl.rows key (add_row r row)
  | None ->
      if Hashtbl.length tbl.rows < tbl.cap then Hashtbl.replace tbl.rows key row
      else begin
        tbl.other <- add_row tbl.other row;
        tbl.evicted <- tbl.evicted + 1
      end

let absorb dst src =
  Hashtbl.iter
    (fun k r ->
      match Hashtbl.find_opt dst.rows k with
      | Some r0 -> Hashtbl.replace dst.rows k (add_row r0 r)
      | None -> Hashtbl.replace dst.rows k r)
    src.rows;
  dst.other <- add_row dst.other src.other;
  dst.evicted <- dst.evicted + src.evicted

(* Demote the smallest rows (ops asc, key desc — so the keep-set is the
   ops-descending, key-ascending prefix) until the cap holds again. *)
let compact_tbl tbl =
  let n = Hashtbl.length tbl.rows in
  if n > tbl.cap then begin
    let all = Hashtbl.fold (fun k r acc -> (k, r) :: acc) tbl.rows [] in
    let sorted =
      List.sort
        (fun (ka, ra) (kb, rb) ->
          if ra.ops <> rb.ops then compare rb.ops ra.ops else compare ka kb)
        all
    in
    List.iteri
      (fun i (k, r) ->
        if i >= tbl.cap then begin
          Hashtbl.remove tbl.rows k;
          tbl.other <- add_row tbl.other r;
          tbl.evicted <- tbl.evicted + 1
        end)
      sorted
  end

type t = {
  mutable t_min : float;
  mutable t_max : float;
  mutable total : row;  (* every record: ops + all io bytes *)
  mutable reads : row;
  mutable writes : row;
  mutable commits : int;
  mutable lost : int;
  stable : row array;  (* indexed by Types.stable_how_to_int, 0..2 *)
  clients : tbl;
  uids : tbl;
  fss : tbl;
  procs : tbl;
}

let create ?(caps = default_caps) () =
  {
    t_min = infinity;
    t_max = neg_infinity;
    total = zero_row;
    reads = zero_row;
    writes = zero_row;
    commits = 0;
    lost = 0;
    stable = Array.make 3 zero_row;
    clients = tbl_create caps.client_cap;
    uids = tbl_create caps.uid_cap;
    fss = tbl_create caps.fs_cap;
    procs = tbl_create caps.proc_cap;
  }

let fs_key r =
  match Record.fh r with
  | Some fh -> (
      match Fh.fsid fh with Some id -> string_of_int id | None -> "foreign")
  | None -> "-"

let observe t (r : Record.t) =
  if r.Record.time < t.t_min then t.t_min <- r.Record.time;
  if r.Record.time > t.t_max then t.t_max <- r.Record.time;
  let io = Record.io_bytes r in
  let proc = Record.proc r in
  let row =
    match proc with
    | Proc.Read -> { ops = 1; read_bytes = io; write_bytes = 0 }
    | Proc.Write -> { ops = 1; read_bytes = 0; write_bytes = io }
    | _ -> { ops = 1; read_bytes = 0; write_bytes = 0 }
  in
  t.total <- add_row t.total row;
  (match proc with
  | Proc.Read -> t.reads <- add_row t.reads row
  | Proc.Write -> (
      t.writes <- add_row t.writes row;
      match r.Record.call with
      | Ops.Write { stable; _ } ->
          let i = Types.stable_how_to_int stable in
          t.stable.(i) <- add_row t.stable.(i) row
      | _ -> ())
  | Proc.Commit -> t.commits <- t.commits + 1
  | _ -> ());
  if r.Record.reply_time = None then t.lost <- t.lost + 1;
  bump t.clients (Ip_addr.to_string r.Record.client) row;
  bump t.uids (string_of_int r.Record.uid) row;
  bump t.fss (fs_key r) row;
  bump t.procs (Proc.to_string proc) row

let merge a b =
  if b.t_min < a.t_min then a.t_min <- b.t_min;
  if b.t_max > a.t_max then a.t_max <- b.t_max;
  a.total <- add_row a.total b.total;
  a.reads <- add_row a.reads b.reads;
  a.writes <- add_row a.writes b.writes;
  a.commits <- a.commits + b.commits;
  a.lost <- a.lost + b.lost;
  for i = 0 to 2 do
    a.stable.(i) <- add_row a.stable.(i) b.stable.(i)
  done;
  absorb a.clients b.clients;
  absorb a.uids b.uids;
  absorb a.fss b.fss;
  absorb a.procs b.procs;
  a

let tbl_of t = function
  | `Client -> t.clients
  | `Uid -> t.uids
  | `Fs -> t.fss
  | `Proc -> t.procs

let compact t = List.iter (fun tb -> compact_tbl (tbl_of t tb)) all_tables
let span t = if t.t_min > t.t_max then None else Some (t.t_min, t.t_max)
let total_ops t = t.total.ops
let read_ops t = t.reads.ops
let read_bytes t = t.reads.read_bytes
let write_ops t = t.writes.ops
let write_bytes t = t.writes.write_bytes
let commit_ops t = t.commits
let lost_replies t = t.lost

let writes_by_stable t =
  List.map
    (fun how -> (how, t.stable.(Types.stable_how_to_int how)))
    [ Types.Unstable; Types.Data_sync; Types.File_sync ]

let top t table n =
  let tbl = tbl_of t table in
  let all = Hashtbl.fold (fun k r acc -> (k, r) :: acc) tbl.rows [] in
  let sorted =
    List.sort
      (fun (ka, ra) (kb, rb) ->
        if ra.ops <> rb.ops then compare rb.ops ra.ops else compare ka kb)
      all
  in
  List.filteri (fun i _ -> i < n) sorted

let other_row t table = (tbl_of t table).other
let table_size t table = Hashtbl.length (tbl_of t table).rows
let evictions t table = (tbl_of t table).evicted
let evictions_total t = List.fold_left (fun acc tb -> acc + evictions t tb) 0 all_tables

(* --- checkpoint encoding --- *)

module Json = Nt_obs.Obs.Json

let row_json r = Json.[ int r.ops; int r.read_bytes; int r.write_bytes ]

(* Table rows go out in sorted key order so the document is
   deterministic. Caps are not written: a restored window takes the
   restoring service's caps. *)
let tbl_json tbl =
  let rows = List.sort compare (Hashtbl.fold (fun k r acc -> (k, r) :: acc) tbl.rows []) in
  Json.Obj
    [ ("other", Arr (row_json tbl.other)); ("evicted", Json.int tbl.evicted);
      ("rows", Arr (List.map (fun (k, r) -> Json.Arr (Str k :: row_json r)) rows)) ]

let to_json t =
  let span =
    match span t with None -> Json.Null | Some (lo, hi) -> Arr [ Num lo; Num hi ]
  in
  Json.Obj
    [ ("span", span); ("total", Arr (row_json t.total)); ("reads", Arr (row_json t.reads));
      ("writes", Arr (row_json t.writes)); ("commits", Json.int t.commits);
      ("lost", Json.int t.lost);
      ("stable", Arr (Array.to_list (Array.map (fun r -> Json.Arr (row_json r)) t.stable)));
      ("tables", Obj (List.map (fun tb -> (table_name tb, tbl_json (tbl_of t tb))) all_tables)) ]

let ( let* ) = Result.bind
let int v = Option.to_result ~none:"window: bad integer" (Json.to_int v)

let finite = function
  | Json.Num f when Float.is_finite f -> Ok f
  | _ -> Error "window: bad time"

let row = function
  | Json.Arr [ a; b; c ] ->
      let* ops = int a in
      let* read_bytes = int b in
      let* write_bytes = int c in
      Ok { ops; read_bytes; write_bytes }
  | _ -> Error "window: bad row"

let tbl_of_json tbl v =
  let* f = Json.fields [ "other"; "evicted"; "rows" ] v in
  match f with
  | [ other; evicted; Arr rows ] ->
      let* other = row other in
      let* evicted = int evicted in
      tbl.other <- other;
      tbl.evicted <- evicted;
      List.fold_left
        (fun acc r ->
          let* () = acc in
          match r with
          | Json.Arr (Str k :: r) ->
              let* r = row (Arr r) in
              if Hashtbl.mem tbl.rows k then Error ("window: duplicate row " ^ k)
              else Ok (Hashtbl.replace tbl.rows k r)
          | _ -> Error "window: bad table row")
        (Ok ()) rows
  | _ -> Error "window: bad table"

let of_json ?caps v =
  let t = create ?caps () in
  let* f =
    Json.fields [ "span"; "total"; "reads"; "writes"; "commits"; "lost"; "stable"; "tables" ] v
  in
  match f with
  | [ span; total; reads; writes; commits; lost; Arr [ s0; s1; s2 ]; tables ] ->
      let* () =
        match span with
        | Json.Null -> Ok ()
        | Arr [ lo; hi ] ->
            let* lo = finite lo in
            let* hi = finite hi in
            t.t_min <- lo;
            t.t_max <- hi;
            Ok ()
        | _ -> Error "window: bad span"
      in
      let* total = row total in
      let* reads = row reads in
      let* writes = row writes in
      let* commits = int commits in
      let* lost = int lost in
      let* s0 = row s0 in
      let* s1 = row s1 in
      let* s2 = row s2 in
      t.total <- total;
      t.reads <- reads;
      t.writes <- writes;
      t.commits <- commits;
      t.lost <- lost;
      t.stable.(0) <- s0;
      t.stable.(1) <- s1;
      t.stable.(2) <- s2;
      let* tf = Json.fields (List.map table_name all_tables) tables in
      let* () =
        List.fold_left2
          (fun acc tb v ->
            let* () = acc in
            tbl_of_json (tbl_of t tb) v)
          (Ok ()) all_tables tf
      in
      Ok t
  | _ -> Error "window: bad stable rows"

let fp_tbl tbl =
  let n = Hashtbl.length tbl.rows in
  (* key string (~client/uid/fs/proc label) + row record + table entry *)
  Nt_obs.Footprint.v ~cards:n ~words:(8 + (n * 14))

let footprint t =
  List.fold_left
    (fun acc tb -> Nt_obs.Footprint.add acc (fp_tbl (tbl_of t tb)))
    (Nt_obs.Footprint.v ~cards:0 ~words:32)
    all_tables
