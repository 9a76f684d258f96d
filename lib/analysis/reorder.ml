module Fh = Nt_nfs.Fh

module Fh_tbl = Hashtbl.Make (struct
  type t = Fh.t

  let equal = Fh.equal
  let hash = Fh.hash
end)

let windows_ms = [ 0.; 1.; 2.; 3.; 5.; 7.; 10.; 15.; 20.; 30.; 40.; 50. ]

(* A file's first offset in this range and its latest one: the first
   pairs with an earlier range's latest when the ranges merge. *)
type ends = { first : int; mutable last : int }

type t = {
  runs : Runs.t array;  (** one per window size, in [windows_ms] order *)
  ends : ends Fh_tbl.t;
  mutable accesses : int;
  mutable pairs : int;
  mutable backwards : int;
}

let make create =
  {
    runs = Array.of_list (List.map (fun ms -> create (ms /. 1000.)) windows_ms);
    ends = Fh_tbl.create 256;
    accesses = 0;
    pairs = 0;
    backwards = 0;
  }

let create () = make (fun window -> Runs.create ~window ())
let create_shard () = make (fun window -> Runs.create_shard ~window ())

(* An access runs backwards when it starts before the one before it;
   an access moves at least one byte, so it then also starts before
   where that one ended. *)
let pair t ~prev offset =
  t.pairs <- t.pairs + 1;
  if offset < prev then t.backwards <- t.backwards + 1

let observe t r =
  match Io_log.of_record r with
  | Some (fh, (a : Io_log.access)) ->
      t.accesses <- t.accesses + 1;
      (match Fh_tbl.find_opt t.ends fh with
      | Some e ->
          pair t ~prev:e.last a.offset;
          e.last <- a.offset
      | None -> Fh_tbl.add t.ends fh { first = a.offset; last = a.offset });
      for i = 0 to Array.length t.runs - 1 do
        Runs.add t.runs.(i) fh a
      done
  | None -> ()
[@@nt.unbounded "one offset pair per distinct file handle, as the window folds keep per file"]

let merge a b =
  Array.iteri (fun i runs -> ignore (Runs.merge a.runs.(i) runs : Runs.t)) b.runs;
  Fh_tbl.iter
    (fun fh (e : ends) ->
      match Fh_tbl.find_opt a.ends fh with
      | Some ae ->
          pair a ~prev:ae.last e.first;
          ae.last <- e.last
      | None -> Fh_tbl.add a.ends fh e)
    b.ends;
  a.accesses <- a.accesses + b.accesses;
  a.pairs <- a.pairs + b.pairs;
  a.backwards <- a.backwards + b.backwards;
  a
[@@nt.unbounded "adopts the shard's per-file offset pairs"]

let stitched t = Array.for_all Runs.stitched t.runs
let finish t = Array.iter Runs.finish t.runs

let swapped t =
  let total = float_of_int t.accesses in
  List.mapi
    (fun i w_ms ->
      let swaps = Runs.swaps t.runs.(i) in
      (w_ms, if total = 0. then 0. else 100. *. float_of_int swaps /. total))
    windows_ms

let knee points =
  match points with
  | [] -> 0.
  | _ ->
      let sorted = List.sort (fun (a, _) (b, _) -> compare a b) points in
      let rec find = function
        | (w1, p1) :: ((_, p2) :: _ as rest) ->
            if p1 > 0. && (p2 -. p1) /. Float.max p1 1e-9 < 0.05 then w1 else find rest
        | [ (w, _) ] -> w
        | [] -> 0.
      in
      (* Skip the zero-window origin when present. *)
      (match sorted with (0., _) :: rest -> find rest | _ -> find sorted)

let out_of_order t = if t.pairs = 0 then 0. else float_of_int t.backwards /. float_of_int t.pairs

let footprint t =
  (* per file: table bucket, handle and the offset pair *)
  let files = Fh_tbl.length t.ends in
  Array.fold_left
    (fun acc runs -> Nt_obs.Footprint.add acc (Runs.footprint runs))
    (Nt_obs.Footprint.v ~cards:files ~words:(16 + (files * 14)))
    t.runs
