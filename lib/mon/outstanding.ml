module Record = Nt_trace.Record

type entry = { expiry : float; proc : string; reply_lost : bool }

type t = {
  cap : int;
  timeout : float;
  mutable heap : entry array;  (* min-heap on expiry; [0, len) live *)
  mutable len : int;
  mutable lost : int;
  mutable dropped : int;
}

let dummy = { expiry = 0.; proc = ""; reply_lost = false }

let create ?(cap = 4096) ?(timeout = 60.) () =
  if cap <= 0 then invalid_arg "Outstanding.create: cap <= 0";
  { cap; timeout; heap = Array.make (min cap 64) dummy; len = 0; lost = 0; dropped = 0 }
[@@nt.raise_ok
  "cap is operator configuration validated at construction; a non-positive cap is a setup \
   error, not a runtime condition"]

let swap t i j =
  let tmp = t.heap.(i) in
  t.heap.(i) <- t.heap.(j);
  t.heap.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if t.heap.(i).expiry < t.heap.(p).expiry then begin
      swap t i p;
      sift_up t p
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let m = ref i in
  if l < t.len && t.heap.(l).expiry < t.heap.(!m).expiry then m := l;
  if r < t.len && t.heap.(r).expiry < t.heap.(!m).expiry then m := r;
  if !m <> i then begin
    swap t i !m;
    sift_down t !m
  end

let pop_min t =
  if t.len = 0 then None
  else begin
    let e = t.heap.(0) in
    t.len <- t.len - 1;
    t.heap.(0) <- t.heap.(t.len);
    t.heap.(t.len) <- dummy;
    sift_down t 0;
    Some e
  end

let rec insert t e =
  if t.len = Array.length t.heap && t.len < t.cap then begin
    let bigger = Array.make (min t.cap (2 * t.len)) dummy in
    Array.blit t.heap 0 bigger 0 t.len;
    t.heap <- bigger
  end;
  if t.len = t.cap then begin
    (* Full: keep the call that stays in flight longest. *)
    if e.expiry <= t.heap.(0).expiry then t.dropped <- t.dropped + 1
    else begin
      ignore (pop_min t);
      t.dropped <- t.dropped + 1;
      insert_raw t e
    end
  end
  else insert_raw t e

and insert_raw t e =
  t.heap.(t.len) <- e;
  t.len <- t.len + 1;
  sift_up t (t.len - 1)

let note t (r : Record.t) =
  match r.Record.reply_time with
  | Some rt ->
      insert t
        { expiry = rt; proc = Nt_nfs.Proc.to_string (Record.proc r); reply_lost = false }
  | None ->
      insert t
        {
          expiry = r.Record.time +. t.timeout;
          proc = Nt_nfs.Proc.to_string (Record.proc r);
          reply_lost = true;
        }

let advance t ~now =
  let continue = ref true in
  while !continue do
    if t.len > 0 && t.heap.(0).expiry <= now then begin
      match pop_min t with
      | Some e -> if e.reply_lost then t.lost <- t.lost + 1
      | None -> ()
    end
    else continue := false
  done

let outstanding t = t.len
let lost t = t.lost
let dropped t = t.dropped

(* --- checkpoint encoding --- *)

module Json = Nt_obs.Obs.Json

let to_json t =
  let key e = (e.expiry, e.proc, e.reply_lost) in
  let es = Array.to_list (Array.sub t.heap 0 t.len) in
  let es = List.sort (fun a b -> compare (key a) (key b)) es in
  let call e = Json.Arr [ Num e.expiry; Str e.proc; Bool e.reply_lost ] in
  Json.Obj
    [ ("lost", Json.int t.lost); ("dropped", Json.int t.dropped);
      ("calls", Arr (List.map call es)) ]

let of_json ?cap ?timeout v =
  let ( let* ) = Result.bind in
  let int v = Option.to_result ~none:"pending: bad integer" (Json.to_int v) in
  let* f = Json.fields [ "lost"; "dropped"; "calls" ] v in
  match f with
  | [ lost; dropped; Arr calls ] ->
      let t = create ?cap ?timeout () in
      let* lost = int lost in
      let* dropped = int dropped in
      t.lost <- lost;
      t.dropped <- dropped;
      let* () =
        List.fold_left
          (fun acc c ->
            let* () = acc in
            match c with
            | Json.Arr [ Num expiry; Str proc; Bool reply_lost ] when Float.is_finite expiry ->
                Ok (insert t { expiry; proc; reply_lost })
            | _ -> Error "pending: bad call")
          (Ok ()) calls
      in
      Ok t
  | _ -> Error "pending: bad calls"

let by_proc t =
  let counts = Hashtbl.create 8 in
  for i = 0 to t.len - 1 do
    let p = t.heap.(i).proc in
    Hashtbl.replace counts p (1 + Option.value ~default:0 (Hashtbl.find_opt counts p))
  done;
  List.sort
    (fun (ka, na) (kb, nb) -> if na <> nb then compare nb na else compare ka kb)
    (Hashtbl.fold (fun k n acc -> (k, n) :: acc) counts [])

let footprint t =
  (* heap slots are preallocated up to cap; live entries carry a boxed
     record + proc string. *)
  Nt_obs.Footprint.v ~cards:t.len ~words:(8 + Array.length t.heap + (t.len * 10))
