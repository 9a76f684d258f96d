module Record = Nt_trace.Record

type config = {
  window_s : float;
  windows : int;
  caps : Win.caps;
  summary_cap : Win.caps;
}

let default_config =
  let c = Win.default_caps in
  {
    window_s = 10.;
    windows = 30;
    caps = c;
    summary_cap =
      {
        Win.client_cap = 4 * c.Win.client_cap;
        uid_cap = 4 * c.Win.uid_cap;
        fs_cap = 4 * c.Win.fs_cap;
        proc_cap = c.Win.proc_cap;
      };
  }

type t = {
  config : config;
  mutable cur_start : float;  (* nan until anchored *)
  mutable wins : (float * Win.t) list;  (* newest first, length <= windows *)
  summary : Win.t;
  mutable observed : int;
  mutable rotations : int;
  mutable evicted_windows : int;
  mutable late : int;
  mutable backward : int;
  mutable forward_jumps : int;
  mutable max_seen : float;
}

let create config =
  if config.window_s <= 0. then invalid_arg "Ring.create: window_s <= 0";
  if config.windows < 1 then invalid_arg "Ring.create: windows < 1";
  {
    config;
    cur_start = Float.nan;
    wins = [];
    summary = Win.create ~caps:config.summary_cap ();
    observed = 0;
    rotations = 0;
    evicted_windows = 0;
    late = 0;
    backward = 0;
    forward_jumps = 0;
    max_seen = neg_infinity;
  }
[@@nt.raise_ok
  "window geometry is operator configuration validated at construction, not a runtime \
   condition"]

let anchored t = not (Float.is_nan t.cur_start)
let align t time = Float.of_int (int_of_float (time /. t.config.window_s)) *. t.config.window_s

let spill t win =
  ignore (Win.merge t.summary win);
  Win.compact t.summary;
  t.evicted_windows <- t.evicted_windows + 1

(* Advance the ring by one window. The window scrolling off the back
   spills into the summary. *)
let rotate_once t =
  t.rotations <- t.rotations + 1;
  t.cur_start <- t.cur_start +. t.config.window_s;
  let fresh = Win.create ~caps:t.config.caps () in
  let wins = (t.cur_start, fresh) :: t.wins in
  match List.rev wins with
  | (_, oldest) :: kept_rev when List.length wins > t.config.windows ->
      spill t oldest;
      t.wins <- List.rev kept_rev
  | _ -> t.wins <- wins

let anchor t time =
  t.cur_start <- align t time;
  t.wins <- [ (t.cur_start, Win.create ~caps:t.config.caps ()) ]

let observe t (r : Record.t) =
  let time = r.Record.time in
  if not (anchored t) then anchor t time;
  if time < t.max_seen then t.backward <- t.backward + 1;
  if time > t.max_seen then t.max_seen <- time;
  if time >= t.cur_start +. t.config.window_s then begin
    (* Forward: rotate up to the covering window. A jump clearing the
       whole ring flushes live windows and re-anchors instead. *)
    let target = align t time in
    let steps = (target -. t.cur_start) /. t.config.window_s in
    if steps > Float.of_int t.config.windows then begin
      t.forward_jumps <- t.forward_jumps + 1;
      List.iter (fun (_, w) -> spill t w) t.wins;
      anchor t time
    end
    else
      while t.cur_start < target do
        rotate_once t
      done
  end;
  (* Route to the covering window: current, a retained older one, or
     the summary once it has scrolled off. *)
  (match t.wins with
  | (start, win) :: _ when time >= start -> Win.observe win r
  | _ -> (
      t.late <- t.late + 1;
      match
        List.find_opt (fun (start, _) -> time >= start && time < start +. t.config.window_s) t.wins
      with
      | Some (_, win) -> Win.observe win r
      | None ->
          Win.observe t.summary r;
          Win.compact t.summary));
  t.observed <- t.observed + 1

let force_rotate t = if anchored t then rotate_once t

let newest t = if t.max_seen = neg_infinity then None else Some t.max_seen
let current t = match t.wins with [] -> None | w :: _ -> Some w
let live t = t.wins
let summary t = t.summary

let totals t =
  List.fold_left Win.merge
    (Win.create ~caps:t.config.summary_cap ())
    (List.map snd t.wins @ [ t.summary ])

let observed t = t.observed
let rotations t = t.rotations
let evicted_windows t = t.evicted_windows
let late t = t.late
let backward t = t.backward
let forward_jumps t = t.forward_jumps

let evictions t =
  List.map
    (fun table ->
      let n =
        List.fold_left (fun acc (_, w) -> acc + Win.evictions w table) 0 t.wins
        + Win.evictions t.summary table
      in
      (table, n))
    Win.all_tables

(* --- checkpoint encoding --- *)

module Json = Nt_obs.Obs.Json

let to_json t =
  Json.Obj
    [ ("cur_start", if anchored t then Num t.cur_start else Null);
      ("max_seen", if t.max_seen = neg_infinity then Null else Num t.max_seen);
      ("observed", Json.int t.observed); ("rotations", Json.int t.rotations);
      ("evicted_windows", Json.int t.evicted_windows); ("late", Json.int t.late);
      ("backward", Json.int t.backward); ("forward_jumps", Json.int t.forward_jumps);
      ("windows", Arr (List.map (fun (start, w) -> Json.Arr [ Num start; Win.to_json w ]) t.wins));
      ("summary", Win.to_json t.summary) ]

let ( let* ) = Result.bind
let int v = Option.to_result ~none:"ring: bad integer" (Json.to_int v)

let finite = function
  | Json.Num f when Float.is_finite f -> Ok f
  | _ -> Error "ring: bad time"

(* [null] stands for the field's create-time value. *)
let or_null ~null = function Json.Null -> Ok null | v -> finite v

let win_of_json caps v =
  let* w = Win.of_json ~caps v in
  Win.compact w;
  Ok w

let of_json config v =
  let* f =
    Json.fields
      [ "cur_start"; "max_seen"; "observed"; "rotations"; "evicted_windows"; "late";
        "backward"; "forward_jumps"; "windows"; "summary" ]
      v
  in
  match f with
  | [ cur_start; max_seen; observed; rotations; evicted_windows; late; backward; forward_jumps;
      Arr windows; summary ] ->
      let* cur_start = or_null ~null:Float.nan cur_start in
      let* max_seen = or_null ~null:neg_infinity max_seen in
      let* observed = int observed in
      let* rotations = int rotations in
      let* evicted_windows = int evicted_windows in
      let* late = int late in
      let* backward = int backward in
      let* forward_jumps = int forward_jumps in
      let* wins =
        List.fold_right
          (fun w acc ->
            let* acc = acc in
            match w with
            | Json.Arr [ start; w ] ->
                let* start = finite start in
                let* w = win_of_json config.caps w in
                Ok ((start, w) :: acc)
            | _ -> Error "ring: bad window")
          windows (Ok [])
      in
      let* summary = win_of_json config.summary_cap summary in
      Ok
        { config; cur_start; wins; summary; observed; rotations; evicted_windows; late;
          backward; forward_jumps; max_seen }
  | _ -> Error "ring: bad windows"

let footprint t =
  List.fold_left
    (fun acc (_, w) -> Nt_obs.Footprint.add acc (Win.footprint w))
    (Nt_obs.Footprint.add (Nt_obs.Footprint.v ~cards:0 ~words:16) (Win.footprint t.summary))
    t.wins
