(* One audited path for every resource number in the tree. The sampler
   follows Progress's cost discipline: [tick] is an increment and a
   mask test; the clock is probed roughly 20x per interval; the
   expensive part (Gc.quick_stat + /proc/self/status) runs once per
   interval and lands in gauges plus a bounded drop-oldest ring. *)

type sample = {
  at : float;
  heap_words : int;
  top_heap_words : int;
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
  rss_bytes : int;
  rss_hwm_bytes : int;
}

type delta = {
  d_seconds : float;
  d_minor_words : float;
  d_major_words : float;
  d_promoted_words : float;
  d_minor_collections : int;
  d_major_collections : int;
  d_compactions : int;
}

type t = {
  obs : Obs.t;
  interval : float;
  cap : int;
  ring : sample array;  (* circular, oldest at [head], [len] live *)
  mutable head : int;
  mutable len : int;
  mutable taken : int;
  mutable evicted : int;
  mutable last_at : float;
  mutable check_mask : int;
  mutable ticks_since_check : int;
  mutable ticks_since_sample : int;
  mutable footprints : (unit -> (string * Footprint.t) list) option;
  fp_pubs : (string, Footprint.pub) Hashtbl.t;
  mutable heap_gauges : (Obs.gauge * Obs.gauge) option;
  g_rss : Obs.gauge;
  g_rss_hwm : Obs.gauge;
  g_minor_gcs : Obs.gauge;
  g_major_gcs : Obs.gauge;
  g_compactions : Obs.gauge;
  c_samples : Obs.counter;
}

(* /proc/self/status is Linux-only; elsewhere (or in a locked-down
   container) both fields read as 0 and the RSS gauges simply stay
   flat — the sampler must degrade, never raise. *)
let proc_status_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> (0, 0)
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let kb_of line =
            let b = Buffer.create 8 in
            String.iter (fun c -> if c >= '0' && c <= '9' then Buffer.add_char b c) line;
            match int_of_string_opt (Buffer.contents b) with Some v -> v | None -> 0
          in
          let starts_with p line =
            String.length line >= String.length p && String.sub line 0 (String.length p) = p
          in
          let rss = ref 0 and hwm = ref 0 in
          (try
             while true do
               let line = input_line ic in
               if starts_with "VmRSS:" line then rss := kb_of line
               else if starts_with "VmHWM:" line then hwm := kb_of line
             done
           with End_of_file | Sys_error _ -> ());
          (!rss, !hwm))

let raw_sample obs =
  let q = Gc.quick_stat () in
  let rss_kb, hwm_kb = proc_status_kb () in
  {
    at = Obs.now obs;
    heap_words = q.Gc.heap_words;
    top_heap_words = q.Gc.top_heap_words;
    minor_words = q.Gc.minor_words;
    promoted_words = q.Gc.promoted_words;
    major_words = q.Gc.major_words;
    minor_collections = q.Gc.minor_collections;
    major_collections = q.Gc.major_collections;
    compactions = q.Gc.compactions;
    rss_bytes = rss_kb * 1024;
    rss_hwm_bytes = hwm_kb * 1024;
  }

(* OCaml 5.1's quick_stat reports heap_words and top_heap_words as 0
   until a major cycle completes, so a sample taken before one says
   nothing about the heap. The two heap gauges are registered at the
   first sample after a major cycle: a run too short for one exports
   none rather than an empty heap. (Gc.stat would force the cycles,
   and its cost with them, on every run.) *)
let publish_heap t s =
  if s.major_collections > 0 then begin
    let heap, top =
      match t.heap_gauges with
      | Some g -> g
      | None ->
          let g =
            ( Obs.gauge t.obs ~help:"major heap words at the last sample" "rt.heap_words",
              Obs.gauge t.obs ~help:"peak major heap words ever sampled" "rt.top_heap_words" )
          in
          t.heap_gauges <- Some g;
          g
    in
    Obs.set heap (float_of_int s.heap_words);
    Obs.set_max top (float_of_int s.top_heap_words)
  end

let create ?(interval = 1.0) ?(cap = 256) obs =
  let cap = max 1 cap in
  let s0 = raw_sample obs in
  let t =
    {
      obs;
      interval = Float.max 0.01 interval;
      cap;
      ring = Array.make cap s0;
      head = 0;
      len = 1;
      taken = 1;
      evicted = 0;
      last_at = s0.at;
      check_mask = 0;
      ticks_since_check = 0;
      ticks_since_sample = 0;
      footprints = None;
      fp_pubs = Hashtbl.create 8;
      heap_gauges = None;
      g_rss = Obs.gauge obs ~help:"resident set bytes at the last sample" "rt.rss_bytes";
      g_rss_hwm = Obs.gauge obs ~help:"peak resident set bytes (VmHWM)" "rt.rss_hwm_bytes";
      g_minor_gcs = Obs.gauge obs ~help:"cumulative minor collections" "rt.minor_collections";
      g_major_gcs = Obs.gauge obs ~help:"cumulative major collections" "rt.major_collections";
      g_compactions = Obs.gauge obs ~help:"cumulative heap compactions" "rt.compactions";
      c_samples = Obs.counter obs ~help:"resource samples taken" "rt.samples";
    }
  in
  publish_heap t s0;
  Obs.set t.g_rss (float_of_int s0.rss_bytes);
  Obs.set_max t.g_rss_hwm (float_of_int s0.rss_hwm_bytes);
  Obs.inc t.c_samples;
  t

let set_footprints t f = t.footprints <- Some f

let publish_footprints t =
  match t.footprints with
  | None -> []
  | Some f ->
      let fps = f () in
      List.iter
        (fun (component, fp) ->
          let pub =
            match Hashtbl.find_opt t.fp_pubs component with
            | Some p -> p
            | None ->
                let p = Footprint.publisher t.obs ~component in
                Hashtbl.replace t.fp_pubs component p;
                p
          in
          Footprint.set pub fp)
        fps;
      fps

let push t s =
  if t.len < t.cap then begin
    t.ring.((t.head + t.len) mod t.cap) <- s;
    t.len <- t.len + 1
  end
  else begin
    t.ring.(t.head) <- s;
    t.head <- (t.head + 1) mod t.cap;
    t.evicted <- t.evicted + 1
  end;
  t.taken <- t.taken + 1

let sample_now t =
  let s = raw_sample t.obs in
  push t s;
  t.last_at <- s.at;
  t.ticks_since_sample <- 0;
  publish_heap t s;
  Obs.set t.g_rss (float_of_int s.rss_bytes);
  Obs.set_max t.g_rss_hwm (float_of_int s.rss_hwm_bytes);
  Obs.set t.g_minor_gcs (float_of_int s.minor_collections);
  Obs.set t.g_major_gcs (float_of_int s.major_collections);
  Obs.set t.g_compactions (float_of_int s.compactions);
  Obs.inc t.c_samples;
  ignore (publish_footprints t : (string * Footprint.t) list);
  s

let retune t now =
  (* Same 20-probes-per-interval target as Progress: size the mask from
     the observed tick rate since the last sample. *)
  let dt = Float.max 1e-9 (now -. t.last_at) in
  let inst_rate = float_of_int t.ticks_since_sample /. dt in
  let per_check = Float.max 1. (inst_rate *. t.interval /. 20.) in
  let mask = ref 0 in
  while float_of_int (!mask + 1) < per_check && !mask < 0xFFFF do
    mask := (!mask * 2) + 1
  done;
  t.check_mask <- !mask

let tick t =
  t.ticks_since_sample <- t.ticks_since_sample + 1;
  t.ticks_since_check <- t.ticks_since_check + 1;
  if t.ticks_since_check land t.check_mask = 0 then begin
    t.ticks_since_check <- 0;
    let now = Obs.now t.obs in
    if now -. t.last_at >= t.interval then begin
      retune t now;
      ignore (sample_now t : sample)
    end
  end

let last t = t.ring.((t.head + t.len - 1) mod t.cap)
let samples t = List.init t.len (fun i -> t.ring.((t.head + i) mod t.cap))
let taken t = t.taken
let evicted t = t.evicted
let cap t = t.cap
let top_heap_words t = (last t).top_heap_words
let rss_hwm_bytes t = (last t).rss_hwm_bytes

let delta ~older ~newer =
  (* Clamped at zero: the obs clock is monotone but an externally
     injected jittery clock (tests) or a restored checkpoint may hand
     us out-of-order pairs, and the Gc counters themselves never run
     backwards — a negative delta is always a caller artifact. *)
  let fmax a b = if a > b then a else b in
  let imax a b = if a > b then a else b in
  {
    d_seconds = fmax 0. (newer.at -. older.at);
    d_minor_words = fmax 0. (newer.minor_words -. older.minor_words);
    d_major_words = fmax 0. (newer.major_words -. older.major_words);
    d_promoted_words = fmax 0. (newer.promoted_words -. older.promoted_words);
    d_minor_collections = imax 0 (newer.minor_collections - older.minor_collections);
    d_major_collections = imax 0 (newer.major_collections - older.major_collections);
    d_compactions = imax 0 (newer.compactions - older.compactions);
  }

(* --- /series JSON --- *)

let series_json ?(refresh = true) t =
  if refresh then ignore (sample_now t : sample);
  let fps = publish_footprints t in
  let open Obs.Json in
  let sample (s : sample) =
    Obj [ ("at", Num s.at); ("heap_words", int s.heap_words);
          ("top_heap_words", int s.top_heap_words); ("minor_words", Num s.minor_words);
          ("promoted_words", Num s.promoted_words); ("major_words", Num s.major_words);
          ("minor_collections", int s.minor_collections);
          ("major_collections", int s.major_collections); ("compactions", int s.compactions);
          ("rss_bytes", int s.rss_bytes); ("rss_hwm_bytes", int s.rss_hwm_bytes) ]
  in
  let footprint (component, (fp : Footprint.t)) =
    (component, Obj [ ("cards", int fp.Footprint.cards); ("words", int fp.Footprint.words) ])
  in
  to_string
    (Obj [ ("schema", Str Nt_formats.Formats.obs_series); ("interval_seconds", Num t.interval);
           ("cap", int t.cap); ("taken", int t.taken); ("evicted", int t.evicted);
           ("samples", Arr (List.map sample (samples t)));
           ("footprint", Obj (List.map footprint fps)) ])
  ^ "\n"
