(* ntcheck: typedtree-level static analyzer for domain-safety, merge
   laws and decode-path purity.  Points at a dune build directory,
   loads every .cmt/.cmti via compiler-libs and runs the nt_check rule
   registry.

   Examples:
     ntcheck _build/default
     ntcheck --format json --fail-on warn _build/default
     ntcheck --rules *)

open Cmdliner
module Engine = Nt_check.Engine
module Rule = Nt_check.Rule
module Finding = Nt_check.Finding

let rule_rows () =
  List.map
    (fun (r : Rule.t) ->
      {
        Rules_cli.id = r.id;
        family = Rule.family_to_string r.family;
        severity = Rule.severity_to_string r.severity;
        doc = r.doc;
      })
    Rule.all

(* The exn-report artifact: one JSON object per reachable function with
   its residual may-raise set, under the registered schema tag. *)
let exn_report_json rows =
  let row (display, file, line, exns) =
    Printf.sprintf {|{"function":%S,"file":%S,"line":%d,"may_raise":[%s]}|} display file line
      (String.concat "," (List.map (Printf.sprintf "%S") exns))
  in
  Printf.sprintf {|{"schema": %S, "functions": [%s]}|} Nt_formats.Formats.exn_report
    (String.concat "," (List.map row rows))

let run build_dir format json_out exn_report_out fail_on enabled_only disabled roots
    excludes max_per_rule verbose list =
  if list then begin
    Rules_cli.print (rule_rows ());
    0
  end
  else
    let unknown =
      List.filter
        (fun id -> Rule.find id = None)
        (disabled @ Option.value enabled_only ~default:[])
    in
    if unknown <> [] then begin
      Printf.eprintf "ntcheck: unknown rule(s): %s (try --rules)\n%!"
        (String.concat ", " unknown);
      2
    end
    else if not (Sys.file_exists build_dir && Sys.is_directory build_dir) then begin
      Printf.eprintf "ntcheck: %s is not a directory (point it at _build/default)\n%!"
        build_dir;
      2
    end
    else begin
      let config =
        {
          Engine.default_config with
          enabled_only;
          disabled;
          excludes = Engine.default_config.Engine.excludes @ excludes;
          max_per_rule;
        }
      in
      let config =
        match roots with [] -> config | roots -> { config with Engine.roots = roots }
      in
      let t = Engine.run config build_dir in
      if Engine.units_scanned t = 0 then begin
        Printf.eprintf
          "ntcheck: no .cmt/.cmti files under %s (build first: dune build)\n%!" build_dir;
        2
      end
      else begin
        let findings = Engine.findings t in
        let write_artifact path text =
          match Out_channel.with_open_text path (fun oc -> output_string oc (text ^ "\n")) with
          | () -> true
          | exception Sys_error e ->
              Printf.eprintf "ntcheck: cannot write %s\n%!" e;
              false
        in
        let artifacts_ok =
          (match json_out with
          | Some path -> write_artifact path (Finding.list_to_json findings)
          | None -> true)
          && (match exn_report_out with
          | Some path -> write_artifact path (exn_report_json (Engine.exn_report t))
          | None -> true)
        in
        (match format with
        | `Json -> print_endline (Finding.list_to_json findings)
        | `Sarif -> print_endline (Finding.list_to_sarif findings)
        | `Text -> List.iter (fun f -> print_endline (Finding.to_string f)) findings);
        if verbose then begin
          Printf.eprintf "ntcheck: reachable from roots: %s\n%!"
            (String.concat ", " (Engine.reachable t));
          Printf.eprintf "ntcheck: merge coverage required for: %s\n%!"
            (String.concat ", " (Engine.merge_required t));
          Printf.eprintf "ntcheck: merge coverage registered for: %s\n%!"
            (String.concat ", " (Engine.merge_covered t));
          Printf.eprintf "ntcheck: suppressions by rule: %s\n%!"
            (match Engine.allowed_by_rule t with
            | [] -> "(none)"
            | l ->
                String.concat ", "
                  (List.map (fun (id, n) -> Printf.sprintf "%s=%d" id n) l));
          List.iter
            (fun (display, _file, _line, exns) ->
              Printf.eprintf "ntcheck: may-raise %s: {%s}\n%!" display
                (String.concat ", " exns))
            (List.filter (fun (_, _, _, exns) -> exns <> []) (Engine.exn_report t))
        end;
        List.iter
          (fun (path, err) -> Printf.eprintf "ntcheck: unreadable %s: %s\n%!" path err)
          (Engine.load_errors t);
        Printf.eprintf
          "ntcheck: %d units, %d error(s), %d warning(s), %d info, %d allowed by attribute%s\n%!"
          (Engine.units_scanned t)
          (Engine.severity_count t Rule.Error)
          (Engine.severity_count t Rule.Warn)
          (Engine.severity_count t Rule.Info)
          (Engine.allowed t)
          (if Engine.overflow t > 0 then
             Printf.sprintf " (%d findings dropped past per-rule cap)" (Engine.overflow t)
           else "");
        let failed =
          match fail_on with
          | `Never -> false
          | `Error -> Engine.severity_count t Rule.Error > 0
          | `Warn ->
              Engine.severity_count t Rule.Error > 0 || Engine.severity_count t Rule.Warn > 0
        in
        if not artifacts_ok then 2 else if failed then 1 else 0
      end
    end

let build_dir =
  Arg.(
    value & pos 0 string "_build/default"
    & info [] ~docv:"BUILD_DIR" ~doc:"Dune build directory holding the .cmt files.")

let format =
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json); ("sarif", `Sarif) ]) `Text
    & info [ "format" ] ~docv:"FORMAT"
        ~doc:"Findings output format: text (default), json, or sarif (SARIF 2.1.0).")

let exn_report_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "exn-report" ] ~docv:"PATH"
        ~doc:
          "Write the per-function may-raise report (every binding reachable from an \
           exn-escape root) as JSON to $(docv).")

let json_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "json-out" ] ~docv:"PATH"
        ~doc:"Also write the JSON findings array to $(docv) (CI artifact).")

let fail_on =
  Arg.(
    value
    & opt (enum [ ("never", `Never); ("warn", `Warn); ("error", `Error) ]) `Error
    & info [ "fail-on" ] ~docv:"LEVEL"
        ~doc:"Exit non-zero when findings reach $(docv): never, warn, or error.")

let enabled_only =
  Arg.(
    value
    & opt (some (list string)) None
    & info [ "enable" ] ~docv:"RULES" ~doc:"Run only these comma-separated rule ids.")

let disabled =
  Arg.(
    value & opt (list string) []
    & info [ "disable" ] ~docv:"RULES" ~doc:"Skip these comma-separated rule ids.")

let roots =
  Arg.(
    value & opt (list string) []
    & info [ "root" ] ~docv:"UNITS"
        ~doc:
          ("Override the domain-safety reachability roots (comma-separated compilation \
            units; default "
          ^ String.concat ", " Engine.default_config.Engine.roots
          ^ ")."))

let excludes =
  Arg.(
    value & opt (list string) []
    & info [ "exclude" ] ~docv:"SUBSTRINGS"
        ~doc:"Skip paths containing any of these substrings (check_fixtures is always skipped).")

let max_per_rule =
  Arg.(
    value
    & opt int Engine.default_config.Engine.max_per_rule
    & info [ "max-per-rule" ] ~docv:"N" ~doc:"Cap findings per rule; excess is counted, not listed.")

let verbose =
  Arg.(
    value & flag
    & info [ "verbose" ]
        ~doc:"Print the reachable-module set and merge-coverage requirements to stderr.")

let cmd =
  Cmd.v
    (Cmd.info "ntcheck"
       ~doc:"Statically check compiled typedtrees for domain-safety, merge-law and purity invariants")
    Term.(
      const run $ build_dir $ format $ json_out $ exn_report_out $ fail_on
      $ enabled_only $ disabled $ roots $ excludes $ max_per_rule $ verbose $ Rules_cli.term)

let () = exit (Cmd.eval' cmd)
