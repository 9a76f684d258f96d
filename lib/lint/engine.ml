module Record = Nt_trace.Record
module Ops = Nt_nfs.Ops
module Types = Nt_nfs.Types
module Ip_addr = Nt_net.Ip_addr
module Obs = Nt_obs.Obs
module Footprint = Nt_obs.Footprint

type config = {
  anonymized : bool;
  anon_profile : Anon_check.profile;
  reorder_window : float;
  xid_window : float;
  max_tracked : int;
  max_findings_per_rule : int;
  select : Nt_rules.selection;
}

let default_config =
  {
    anonymized = false;
    anon_profile = Anon_check.default;
    reorder_window = 0.010;
    xid_window = 120.0;
    max_tracked = 1_000_000;
    max_findings_per_rule = 100;
    select = Nt_rules.every_rule;
  }

type t = {
  cfg : config;
  tally : Finding.t Nt_rules.tally;
  mutable index : int;
  protocol : Protocol_check.t;
  (* Telemetry mirror: the semantic accessors below never read these,
     so the default registry is the disabled [Obs.null] and linting
     pays one dead branch per record when unobserved. *)
  c_records : Obs.counter;
  c_findings : (string, Obs.counter) Hashtbl.t;  (* rule id -> labeled counter *)
  c_suppressed : Obs.counter;
  c_evictions : Obs.counter;
  g_tracked : Obs.gauge;
  fp_pub : Footprint.pub;
}

let emit t (f : Finding.t) =
  let count () = Option.iter Obs.inc (Hashtbl.find_opt t.c_findings f.rule.id) in
  match Nt_rules.add t.tally f.rule f with
  | `Off -> ()
  | `Kept -> count ()
  | `Capped ->
      count ();
      Obs.inc t.c_suppressed

let create ?(obs = Obs.null) cfg =
  let c_findings = Hashtbl.create 32 in
  List.iter
    (fun (rule : Rule.t) ->
      if Nt_rules.enabled cfg.select rule then
        Hashtbl.replace c_findings rule.id
          (Obs.counter obs ~labels:[ ("rule", rule.id) ] ~help:"lint findings by rule"
             "lint.findings"))
    Rule.all;
  let rec t =
    lazy
      {
        cfg;
        tally = Nt_rules.tally ~select:cfg.select ~cap:cfg.max_findings_per_rule;
        index = 0;
        protocol =
          Protocol_check.create
            {
              Protocol_check.reorder_window = cfg.reorder_window;
              xid_window = cfg.xid_window;
              max_tracked = cfg.max_tracked;
            }
            ~emit:(fun f -> emit (Lazy.force t) f);
        c_records = Obs.counter obs ~help:"records linted" "lint.records";
        c_findings;
        c_suppressed = Obs.counter obs ~help:"findings dropped by per-rule cap" "lint.suppressed";
        c_evictions =
          Obs.counter obs ~help:"lint state-table capacity evictions" "lint.evictions";
        g_tracked = Obs.gauge obs ~help:"live lint protocol-state entries" "lint.tracked";
        fp_pub = Footprint.publisher obs ~component:"lint";
      }
  in
  Lazy.force t

(* --- anonymization family --- *)

let path_components p = String.split_on_char '/' p

let names_of (r : Record.t) =
  let from_call =
    match r.Record.call with
    | Ops.Lookup { name; _ }
    | Ops.Create { name; _ }
    | Ops.Mkdir { name; _ }
    | Ops.Mknod { name; _ }
    | Ops.Remove { name; _ }
    | Ops.Rmdir { name; _ } ->
        [ name ]
    | Ops.Symlink { name; target; _ } -> name :: path_components target
    | Ops.Rename { from_name; to_name; _ } -> [ from_name; to_name ]
    | Ops.Link { to_name; _ } -> [ to_name ]
    | _ -> []
  in
  let from_result =
    match r.Record.result with
    | Some (Ok (Ops.R_readlink target)) -> path_components target
    | Some (Ok (Ops.R_readdir { entries; _ })) ->
        List.map (fun (e : Ops.dir_entry) -> e.Ops.entry_name) entries
    | _ -> []
  in
  from_call @ from_result

let fattrs_of (r : Record.t) =
  match r.Record.result with
  | Some (Ok (Ops.R_lookup { obj; dir; _ })) -> List.filter_map Fun.id [ obj; dir ]
  | _ -> Option.to_list (Record.post_fattr r)

let check_anon t ~index ~time (r : Record.t) =
  let p = t.cfg.anon_profile in
  let fire rule fmt = Printf.ksprintf (fun d -> emit t (Finding.v rule ~index ~time d)) fmt in
  List.iter
    (fun (role, addr) ->
      if not (Anon_check.check_ip addr) then
        fire Rule.raw_ip "%s address %s outside the 10/8 pool" role (Ip_addr.to_string addr))
    [ ("client", r.Record.client); ("server", r.Record.server) ];
  List.iter
    (fun (role, kind, v) ->
      let ok = match kind with `Uid -> Anon_check.check_uid p v | `Gid -> Anon_check.check_gid p v in
      if not ok then fire Rule.unmapped_id "%s %d neither preserved nor mapped" role v)
    ([ ("uid", `Uid, r.Record.uid); ("gid", `Gid, r.Record.gid) ]
    @ List.concat_map
        (fun (a : Types.fattr) -> [ ("attr uid", `Uid, a.Types.uid); ("attr gid", `Gid, a.Types.gid) ])
        (fattrs_of r));
  List.iter
    (fun name ->
      match Anon_check.check_name p name with
      | Anon_check.Name_ok -> ()
      | Anon_check.Dictionary w -> fire Rule.dictionary_word "%S contains %S" name w
      | Anon_check.Residue why -> fire Rule.name_residue "%S: %s" name why)
    (names_of r)

let observe t r =
  let index = t.index in
  t.index <- index + 1;
  Obs.inc t.c_records;
  Protocol_check.observe t.protocol ~index r;
  if t.cfg.anonymized then check_anon t ~index ~time:r.Record.time r

let observe_stats t stats = Hygiene_check.check ~emit:(emit t) stats

let run ?obs ?stats cfg records =
  let t = create ?obs cfg in
  Seq.iter (observe t) records;
  Option.iter (observe_stats t) stats;
  t

(* Reading results implies the stream is over: deferred protocol
   suspects still waiting out their reorder window get judged now.
   Also the sync point for state-size telemetry (delta against the
   counter's own value, so repeated settles don't double-count). *)
let footprint t =
  let tracked = Protocol_check.tracked t.protocol in
  let kept = Nt_rules.kept_count t.tally in
  Footprint.v ~cards:(tracked + kept) ~words:(32 + (tracked * 12) + (kept * 24))

let settle t =
  Protocol_check.finalize t.protocol;
  Obs.set t.g_tracked (float_of_int (Protocol_check.tracked t.protocol));
  Obs.add t.c_evictions (Protocol_check.evictions t.protocol - Obs.value t.c_evictions);
  Footprint.set t.fp_pub (footprint t)

let findings t =
  settle t;
  List.stable_sort
    (fun (a : Finding.t) (b : Finding.t) -> compare a.Finding.index b.Finding.index)
    (Nt_rules.kept t.tally)

let tally t =
  settle t;
  t.tally

let records_seen t = t.index
