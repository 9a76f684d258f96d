module Record = Nt_trace.Record
module Ops = Nt_nfs.Ops
module Fh = Nt_nfs.Fh
module Histogram = Nt_util.Histogram
module Intern = Nt_util.Intern

type config = {
  phase1_start : float;
  phase1_len : float;
  phase2_len : float;
  block : int;
}

let config ~phase1_start =
  { phase1_start; phase1_len = 86400.; phase2_len = 86400.; block = 8192 }

(* Per-block state, packed in a float array:
   >= 0.0   live, tracked birth at that time
   -1.0     live, birth not tracked (pre-existing or out-of-phase)
   -2.0     not live *)
let untracked = -1.0
let dead = -2.0

type file_state = {
  mutable births : float array;
  mutable size_blocks : int;
}

module Fh_tbl = Hashtbl.Make (struct
  type t = Fh.t

  let equal = Fh.equal
  let hash = Fh.hash
end)

(* Name-binding keys are packed interned atoms (dir atom high, name
   atom in the low 31 bits): binding traffic is int-keyed, with no
   per-record tuple allocation or directory-handle hex encoding. *)
module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

type death_cause = Overwrite | Truncate | Deletion

type t = {
  cfg : config;
  files : file_state Fh_tbl.t;
  atoms : Intern.t;  (* dir-handle and name atoms backing [names] keys *)
  (* packed (dir, name) key -> bound handle, learned from
     lookups/creates so REMOVE/RENAME calls can be resolved to the
     dying file; an absent key is unbound. *)
  names : Fh.t Int_tbl.t;
  mutable births_write : int;
  mutable births_extension : int;
  (* Death journal as parallel arrays ([n_deaths] live entries): the
     kill path runs per overwritten block, so recording a death must
     not allocate. *)
  mutable death_lt : float array;
  mutable death_cause : death_cause array;
  mutable n_deaths : int;
  lifetimes : Histogram.t;
}

(* Log-ish edges from 10 ms to 4 days for the Figure 3 CDF. *)
let lifetime_edges =
  [| 0.01; 0.05; 0.1; 0.25; 0.5; 1.; 2.; 5.; 10.; 30.; 60.; 120.; 300.; 600.; 1200.; 1800.;
     3600.; 7200.; 14400.; 28800.; 43200.; 86400.; 172800.; 345600. |]

let create cfg =
  {
    cfg;
    files = Fh_tbl.create 1024;
    atoms = Intern.create 1024;
    names = Int_tbl.create 1024;
    births_write = 0;
    births_extension = 0;
    death_lt = [||];
    death_cause = [||];
    n_deaths = 0;
    lifetimes = Histogram.create ~edges:lifetime_edges;
  }

let phase1_end t = t.cfg.phase1_start +. t.cfg.phase1_len
let phase2_end t = phase1_end t +. t.cfg.phase2_len
let in_phase1 t time = time >= t.cfg.phase1_start && time < phase1_end t
let in_window t time = time >= t.cfg.phase1_start && time < phase2_end t

let blocks_of t bytes = (bytes + t.cfg.block - 1) / t.cfg.block

let state_for t fh ~initial_size_blocks =
  match Fh_tbl.find_opt t.files fh with
  | Some st -> st
  | None ->
      let n = max initial_size_blocks 4 in
      let births = Array.make n dead in
      Array.fill births 0 initial_size_blocks untracked;
      let st = { births; size_blocks = initial_size_blocks } in
      Fh_tbl.add t.files fh st;
      st

let ensure_capacity st n =
  if n > Array.length st.births then begin
    let bigger = Array.make (max n (2 * Array.length st.births)) dead in
    Array.blit st.births 0 bigger 0 (Array.length st.births);
    st.births <- bigger
  end

let push_death t lt cause =
  if t.n_deaths >= Array.length t.death_lt then begin
    let cap = max 64 (2 * Array.length t.death_lt) in
    let lts = Array.make cap 0. in
    let causes = Array.make cap Overwrite in
    Array.blit t.death_lt 0 lts 0 t.n_deaths;
    Array.blit t.death_cause 0 causes 0 t.n_deaths;
    t.death_lt <- lts;
    t.death_cause <- causes
  end;
  t.death_lt.(t.n_deaths) <- lt;
  t.death_cause.(t.n_deaths) <- cause;
  t.n_deaths <- t.n_deaths + 1
[@@nt.unbounded "death journal, one entry per tracked block death; summarized by result"]

let kill t st ~time ~cause b =
  let birth = st.births.(b) in
  if birth >= 0. && in_window t time then begin
    let lifetime = time -. birth in
    push_death t lifetime cause;
    Histogram.add t.lifetimes lifetime
  end;
  st.births.(b) <- dead

let give_birth t st ~time ~extension b =
  if in_phase1 t time then begin
    st.births.(b) <- time;
    if extension then t.births_extension <- t.births_extension + 1
    else t.births_write <- t.births_write + 1
  end
  else st.births.(b) <- untracked

(* A write over [b0, b1]: live blocks die by overwrite and are reborn;
   blocks past EOF are born (the skipped gap counts as extension). *)
let handle_write t fh ~time ~offset ~count ~post_size =
  if count > 0 then begin
    let b0 = offset / t.cfg.block in
    let b1 = (offset + count - 1) / t.cfg.block in
    let initial = max 0 (min b0 (blocks_of t (offset + count))) in
    let st = state_for t fh ~initial_size_blocks:initial in
    ensure_capacity st (b1 + 1);
    (* Gap blocks between old EOF and the write start. *)
    if b0 > st.size_blocks then
      for b = st.size_blocks to b0 - 1 do
        if st.births.(b) = dead then give_birth t st ~time ~extension:true b
      done;
    for b = b0 to b1 do
      if b < st.size_blocks && st.births.(b) <> dead then kill t st ~time ~cause:Overwrite b;
      give_birth t st ~time ~extension:false b
    done;
    let new_size = max st.size_blocks (b1 + 1) in
    (match post_size with
    | Some s ->
        let sb = blocks_of t (Int64.to_int s) in
        st.size_blocks <- max new_size sb
    | None -> st.size_blocks <- new_size);
    ensure_capacity st st.size_blocks
  end

let handle_truncate t fh ~time ~new_size =
  let nb = blocks_of t new_size in
  match Fh_tbl.find_opt t.files fh with
  | None -> ignore (state_for t fh ~initial_size_blocks:nb)
  | Some st ->
      if nb < st.size_blocks then begin
        for b = nb to st.size_blocks - 1 do
          if b < Array.length st.births && st.births.(b) <> dead then
            kill t st ~time ~cause:Truncate b
        done;
        st.size_blocks <- nb
      end
      else if nb > st.size_blocks then begin
        ensure_capacity st nb;
        for b = st.size_blocks to nb - 1 do
          give_birth t st ~time ~extension:true b
        done;
        st.size_blocks <- nb
      end

let handle_remove t fh ~time =
  match Fh_tbl.find_opt t.files fh with
  | None -> ()
  | Some st ->
      for b = 0 to st.size_blocks - 1 do
        if b < Array.length st.births && st.births.(b) <> dead then
          kill t st ~time ~cause:Deletion b
      done;
      Fh_tbl.remove t.files fh

(* Learn sizes from attributes without creating tracked births. *)
let note_size t fh size =
  let nb = blocks_of t (Int64.to_int size) in
  let st = state_for t fh ~initial_size_blocks:nb in
  if nb > st.size_blocks then begin
    ensure_capacity st nb;
    for b = st.size_blocks to nb - 1 do
      if st.births.(b) = dead then st.births.(b) <- untracked
    done;
    st.size_blocks <- nb
  end

let name_key t dir name = (Intern.id t.atoms (Fh.to_raw dir) lsl 31) lor Intern.id t.atoms name

let apply t (r : Record.t) =
  (* Name learning for REMOVE/RENAME resolution. *)
  (match (r.call, r.result) with
  | Ops.Lookup { dir; name }, Some (Ok (Ops.R_lookup { fh; _ })) ->
      Int_tbl.replace t.names (name_key t dir name) fh
  | Ops.Create { dir; name; _ }, Some (Ok (Ops.R_create { fh = Some fh; _ })) ->
      Int_tbl.replace t.names (name_key t dir name) fh
  | _ -> ());
  match r.call with
  | Ops.Write { fh; offset; count; _ } ->
      let count =
        match r.result with Some (Ok (Ops.R_write { count = c; _ })) when c > 0 -> c | _ -> count
      in
      handle_write t fh ~time:r.time ~offset:(Int64.to_int offset) ~count
        ~post_size:(Record.post_size r)
  | Ops.Setattr { fh; attrs } -> (
      match attrs.set_size with
      | Some s -> handle_truncate t fh ~time:r.time ~new_size:(Int64.to_int s)
      | None -> ())
  | Ops.Remove { dir; name } ->
      if Record.is_ok r then begin
        let k = name_key t dir name in
        match Int_tbl.find_opt t.names k with
        | Some fh ->
            handle_remove t fh ~time:r.time;
            Int_tbl.remove t.names k
        | None -> ()
      end
  | Ops.Rename { from_dir; from_name; to_dir; to_name } ->
      if Record.is_ok r then begin
        (* POSIX rename: a pre-existing target is unlinked. *)
        let fk = name_key t from_dir from_name and tk = name_key t to_dir to_name in
        (match Int_tbl.find_opt t.names tk with
        | Some victim -> handle_remove t victim ~time:r.time
        | None -> ());
        match Int_tbl.find_opt t.names fk with
        | Some fh ->
            Int_tbl.remove t.names fk;
            Int_tbl.replace t.names tk fh
        | None -> Int_tbl.remove t.names tk
      end
  | _ -> (
      (* A create that truncated an existing file shows as size 0. *)
      match (Record.target_fh r, Record.post_size r) with
      | Some fh, Some size -> note_size t fh size
      | _ -> ())

let observe t (r : Record.t) = if r.time < phase2_end t then apply t r

type result = {
  births : int;
  births_write_pct : float;
  births_extension_pct : float;
  deaths : int;
  deaths_overwrite_pct : float;
  deaths_truncate_pct : float;
  deaths_deletion_pct : float;
  end_surplus : int;
  end_surplus_pct : float;
  lifetime_cdf : (float * float) list;
}

let result t =
  let births = t.births_write + t.births_extension in
  (* Sampling-bias filter: deaths with lifespan beyond Phase 2's length
     could only have been observed for early births. *)
  let deaths = ref 0 in
  let dropped = ref 0 in
  let overwrites = ref 0 in
  let truncates = ref 0 in
  let deletions = ref 0 in
  let hist = Histogram.create ~edges:lifetime_edges in
  for i = 0 to t.n_deaths - 1 do
    let l = t.death_lt.(i) in
    if l <= t.cfg.phase2_len then begin
      incr deaths;
      (match t.death_cause.(i) with
      | Overwrite -> incr overwrites
      | Truncate -> incr truncates
      | Deletion -> incr deletions);
      Histogram.add hist l
    end
    else incr dropped
  done;
  let deaths = !deaths in
  let live_tracked = ref 0 in
  Fh_tbl.iter
    (fun _ st ->
      for b = 0 to st.size_blocks - 1 do
        if b < Array.length st.births && st.births.(b) >= 0. then incr live_tracked
      done)
    t.files;
  let end_surplus = !live_tracked + !dropped in
  let pct n = if deaths = 0 then 0. else 100. *. float_of_int n /. float_of_int deaths in
  {
    births;
    births_write_pct =
      (if births = 0 then 0. else 100. *. float_of_int t.births_write /. float_of_int births);
    births_extension_pct =
      (if births = 0 then 0. else 100. *. float_of_int t.births_extension /. float_of_int births);
    deaths;
    deaths_overwrite_pct = pct !overwrites;
    deaths_truncate_pct = pct !truncates;
    deaths_deletion_pct = pct !deletions;
    end_surplus;
    end_surplus_pct =
      (if births = 0 then 0. else 100. *. float_of_int end_surplus /. float_of_int births);
    lifetime_cdf = Histogram.cdf hist;
  }

let cdf_at r seconds =
  let rec go last = function
    | [] -> last
    | (edge, frac) :: rest -> if edge > seconds then last else go frac rest
  in
  go 0. r.lifetime_cdf

let footprint t =
  let files = Fh_tbl.length t.files in
  let atoms = Intern.size t.atoms in
  let names = Int_tbl.length t.names in
  let fp =
    Nt_obs.Footprint.v
      ~cards:(files + atoms + names + t.n_deaths)
      ~words:(32 + (files * 22) + (atoms * 10) + (names * 8) + (Array.length t.death_lt * 3))
  in
  Nt_obs.Footprint.add fp (Histogram.footprint t.lifetimes)
