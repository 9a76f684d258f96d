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

(* The exn-report artifact: one JSON object per reachable function with
   its residual may-raise set, under the registered schema tag. *)
let exn_report_json rows =
  let open Nt_obs.Obs.Json in
  let row (display, file, line, exns) =
    Obj [ ("function", Str display); ("file", Str file); ("line", int line);
          ("may_raise", Arr (List.map (fun e -> Str e) exns)) ]
  in
  to_string
    (Obj [ ("schema", Str Nt_formats.Formats.exn_report); ("functions", Arr (List.map row rows)) ])

(* A unit that does not load is a unit no rule saw: the verdict would
   cover less than the tree holds, so any load error exits 2. *)
let list_unreadable t =
  List.iter
    (fun (path, err) -> Printf.eprintf "ntcheck: unreadable %s: %s\n%!" path err)
    (Engine.load_errors t)

let run build_dir format json_out exn_report_out fail_on select roots excludes max_per_rule
    verbose list =
  if list then begin
    Rules_cli.print Rule.all;
    0
  end
  else if Rules_cli.unknown_rules ~tool:"ntcheck" ~hint:"--rules" Rule.all select then 2
  else if not (Sys.file_exists build_dir && Sys.is_directory build_dir) then begin
    Printf.eprintf "ntcheck: %s is not a directory (point it at _build/default)\n%!"
      build_dir;
    2
  end
  else begin
    let config =
      {
        Engine.default_config with
        select;
        excludes = Engine.default_config.Engine.excludes @ excludes;
        max_per_rule;
      }
    in
    let config =
      match roots with [] -> config | roots -> { config with Engine.roots = roots }
    in
    let t = Engine.run config build_dir in
    if Engine.units_scanned t = 0 then begin
      list_unreadable t;
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
      list_unreadable t;
      let tally = Engine.tally t in
      Printf.eprintf "ntcheck: %d units, %s, %d allowed by attribute%s\n%!"
        (Engine.units_scanned t) (Rules_cli.severity_counts tally) (Engine.allowed t)
        (if Nt_rules.capped tally > 0 then
           Printf.sprintf " (%d findings dropped past per-rule cap)" (Nt_rules.capped tally)
         else "");
      if (not artifacts_ok) || Engine.load_errors t <> [] then 2
      else if Nt_rules.fails ~fail_on tally then 1
      else 0
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
      const run $ build_dir $ format $ json_out $ exn_report_out $ Rules_cli.fail_on
      $ Rules_cli.select $ roots $ excludes $ max_per_rule $ verbose $ Rules_cli.term)

let () = exit (Cmd.eval' cmd)
