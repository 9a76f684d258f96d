(* The rule flags both static checkers share (nfslint over traces,
   ntcheck over typedtrees): --rules prints the registry as the same
   four-column table, --enable/--disable select rules by id, and
   --fail-on sets the severity that makes the exit status 1. *)

open Cmdliner

let print (rules : Nt_rules.t list) =
  let id_w = List.fold_left (fun w (r : Nt_rules.t) -> max w (String.length r.id)) 4 rules in
  let fam_w = List.fold_left (fun w (r : Nt_rules.t) -> max w (String.length r.family)) 6 rules in
  List.iter
    (fun (r : Nt_rules.t) ->
      Printf.printf "%-*s %-*s %-5s %s\n" id_w r.id fam_w r.family
        (Nt_rules.severity_to_string r.severity) r.doc)
    rules

let term =
  Arg.(
    value & flag
    & info [ "rules"; "list-rules" ] ~doc:"Print the rule catalog (id, family, severity, doc) and exit.")

let select =
  let enabled_only =
    Arg.(
      value
      & opt (some (list string)) None
      & info [ "enable" ] ~docv:"RULES" ~doc:"Run only these comma-separated rule ids.")
  and disabled =
    Arg.(
      value & opt (list string) []
      & info [ "disable" ] ~docv:"RULES" ~doc:"Skip these comma-separated rule ids.")
  in
  let select enabled_only disabled = { Nt_rules.enabled_only; disabled } in
  Term.(const select $ enabled_only $ disabled)

let fail_on =
  Arg.(
    value
    & opt (enum [ ("never", None); ("warn", Some Nt_rules.Warn); ("error", Some Nt_rules.Error) ])
        (Some Nt_rules.Error)
    & info [ "fail-on" ] ~docv:"LEVEL"
        ~doc:"Exit non-zero when findings reach $(docv): never, warn, or error.")

(* Unknown ids in the selection are a usage error: the run would
   otherwise check less than it was asked to, silently. *)
let unknown_rules ~tool ~hint rules select =
  match Nt_rules.unknown rules select with
  | [] -> false
  | ids ->
      Printf.eprintf "%s: unknown rule(s): %s (try %s)\n%!" tool (String.concat ", " ids) hint;
      true

let severity_counts tally =
  Printf.sprintf "%d error(s), %d warning(s), %d info"
    (Nt_rules.severity_count tally Nt_rules.Error)
    (Nt_rules.severity_count tally Nt_rules.Warn)
    (Nt_rules.severity_count tally Nt_rules.Info)
