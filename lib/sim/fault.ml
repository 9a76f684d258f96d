module Prng = Nt_util.Prng
module Obs = Nt_obs.Obs

type drop_model =
  | No_drop
  | Bernoulli of float
  | Gilbert_elliott of { p_gb : float; p_bg : float; loss_good : float; loss_bad : float }

type plan = {
  drop : drop_model;
  corrupt : float;
  corrupt_bytes : int;
  corrupt_addrs_only : bool;
  truncate : float;
  truncate_to : int;
  duplicate : float;
  duplicate_delay : float;
  reorder : float;
  reorder_displace : float;
  clock_jitter : float;
}

let none =
  {
    drop = No_drop;
    corrupt = 0.;
    corrupt_bytes = 1;
    corrupt_addrs_only = false;
    truncate = 0.;
    truncate_to = 0;
    duplicate = 0.;
    duplicate_delay = 0.001;
    reorder = 0.;
    reorder_displace = 1.;
    clock_jitter = 0.;
  }

let bernoulli_loss p = { none with drop = Bernoulli p }

let campus_burst =
  {
    none with
    (* bad-state fraction 0.01/0.26 ~ 3.8%, x0.5 loss ~ 1.9% mean *)
    drop = Gilbert_elliott { p_gb = 0.01; p_bg = 0.25; loss_good = 0.0005; loss_bad = 0.5 };
    corrupt = 0.002;
    corrupt_bytes = 2;
    truncate = 0.001;
    truncate_to = 60;
    duplicate = 0.005;
    reorder = 0.001;
    reorder_displace = 0.5;
    clock_jitter = 0.00002;
  }

let is_noop p =
  p.drop = No_drop && p.corrupt = 0. && p.truncate = 0. && p.duplicate = 0. && p.reorder = 0.
  && p.clock_jitter = 0.

type counts = {
  presented : int;
  dropped : int;
  corrupted : int;
  truncated : int;
  duplicated : int;
  reordered : int;
  emitted : int;
}

let counts_to_string c =
  Printf.sprintf
    "presented=%d dropped=%d corrupted=%d truncated=%d duplicated=%d reordered=%d emitted=%d"
    c.presented c.dropped c.corrupted c.truncated c.duplicated c.reordered c.emitted

(* Injection accounting lives on the obs registry (fault.* namespace,
   one [fault.events] counter per kind label); [counts] reads the
   counters back so existing callers see the numbers a --metrics
   snapshot reports. *)
type t = {
  plan : plan;
  rng : Prng.t;
  mutable bad_state : bool;  (* Gilbert-Elliott channel state *)
  c_presented : Obs.counter;
  c_dropped : Obs.counter;
  c_corrupted : Obs.counter;
  c_truncated : Obs.counter;
  c_duplicated : Obs.counter;
  c_reordered : Obs.counter;
  c_emitted : Obs.counter;
}

let create ?obs ?(seed = 2003L) plan =
  let obs = match obs with Some o -> o | None -> Obs.create () in
  let kind k = Obs.counter obs ~labels:[ ("kind", k) ] ~help:"injected fault events by kind" "fault.events" in
  {
    plan;
    rng = Prng.create seed;
    bad_state = false;
    c_presented = Obs.counter obs ~help:"packets offered to the injector" "fault.presented";
    c_dropped = kind "dropped";
    c_corrupted = kind "corrupted";
    c_truncated = kind "truncated";
    c_duplicated = kind "duplicated";
    c_reordered = kind "reordered";
    c_emitted = Obs.counter obs ~help:"packets emitted by the injector" "fault.emitted";
  }

let counts t =
  {
    presented = Obs.value t.c_presented;
    dropped = Obs.value t.c_dropped;
    corrupted = Obs.value t.c_corrupted;
    truncated = Obs.value t.c_truncated;
    duplicated = Obs.value t.c_duplicated;
    reordered = Obs.value t.c_reordered;
    emitted = Obs.value t.c_emitted;
  }

let step_drop t =
  match t.plan.drop with
  | No_drop -> false
  | Bernoulli p -> Prng.chance t.rng p
  | Gilbert_elliott { p_gb; p_bg; loss_good; loss_bad } ->
      (if t.bad_state then begin
         if Prng.chance t.rng p_bg then t.bad_state <- false
       end
       else if Prng.chance t.rng p_gb then t.bad_state <- true);
      Prng.chance t.rng (if t.bad_state then loss_bad else loss_good)

(* IPv4 source/destination addresses within an Ethernet frame. *)
let addr_lo = 26
let addr_hi = 33

let flip_bytes t data =
  let b = Bytes.of_string data in
  let n = Bytes.length b in
  let lo, hi =
    if t.plan.corrupt_addrs_only && n > addr_hi then (addr_lo, addr_hi) else (0, n - 1)
  in
  for _ = 1 to t.plan.corrupt_bytes do
    let pos = Prng.int_in t.rng lo hi in
    let mask = 1 + Prng.int t.rng 255 in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor mask))
  done;
  Bytes.unsafe_to_string b

let jitter t at =
  if t.plan.clock_jitter = 0. then at
  else at +. (((Prng.unit_float t.rng *. 2.) -. 1.) *. t.plan.clock_jitter)

let apply t ~time data =
  Obs.inc t.c_presented;
  if step_drop t then begin
    Obs.inc t.c_dropped;
    []
  end
  else begin
    let p = t.plan in
    let at = jitter t time in
    let out =
      if p.duplicate > 0. && Prng.chance t.rng p.duplicate then begin
        Obs.inc t.c_duplicated;
        [ (at, data); (at +. p.duplicate_delay, data) ]
      end
      else if p.corrupt > 0. && String.length data > 0 && Prng.chance t.rng p.corrupt then begin
        Obs.inc t.c_corrupted;
        [ (at, flip_bytes t data) ]
      end
      else if
        p.truncate > 0. && String.length data > p.truncate_to && Prng.chance t.rng p.truncate
      then begin
        Obs.inc t.c_truncated;
        [ (at, String.sub data 0 p.truncate_to) ]
      end
      else if p.reorder > 0. && Prng.chance t.rng p.reorder then begin
        Obs.inc t.c_reordered;
        [ (at +. p.reorder_displace, data) ]
      end
      else [ (at, data) ]
    in
    Obs.add t.c_emitted (List.length out);
    out
  end

let mangle_pcap ?(seed = 41L) ~flips bytes =
  let b = Bytes.of_string bytes in
  let n = Bytes.length b in
  if n <= 24 || flips <= 0 then (bytes, 0)
  else begin
    let rng = Prng.create seed in
    let applied = ref 0 in
    for _ = 1 to flips do
      let pos = Prng.int_in rng 24 (n - 1) in
      let mask = 1 + Prng.int rng 255 in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor mask));
      incr applied
    done;
    (Bytes.unsafe_to_string b, !applied)
  end
