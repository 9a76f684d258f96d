(* The exn-escape rule: every function transitively reachable from a
   counted-never-raised root must have an empty residual may-raise set
   after handler subtraction.  Roots are configured as display-name
   patterns ("Nt_tbin.Decoder.*" or "Nt_core.Pipeline.analyze_stream");
   a pattern that matches nothing is configuration drift.

   [@@nt.raise_ok "reason"] (or [@@nt.allow "exn-escape: reason"]) on a
   binding empties its summary before the fixpoint — accepted escapes
   stop propagating — and every annotated binding reachable from a
   root in the *un*-annotated graph is counted through the suppression
   census, so escapes are visible in --verbose even when accepted. *)

let glob_matches pat display =
  let n = String.length pat in
  if n >= 2 && String.sub pat (n - 2) 2 = ".*" then
    Syntax.starts_with ~prefix:(String.sub pat 0 (n - 1)) display
  else pat = display

let check (sink : Finding.sink) ~graph ~roots ~config_finding =
  let all_nodes = Callgraph.nodes graph in
  (* Root expansion: globs take every exported binding under the
     prefix; exact names take the exported binding only. *)
  let root_ids = ref [] in
  List.iter
    (fun pat ->
      let matched =
        List.filter
          (fun (n : Callgraph.node) -> Callgraph.exported graph n && glob_matches pat n.display)
          all_nodes
      in
      if matched = [] then
        config_finding
          (Printf.sprintf "exn root %s matched no compiled binding" pat)
      else
        List.iter
          (fun (n : Callgraph.node) ->
            if not (List.mem n.id !root_ids) then root_ids := n.id :: !root_ids)
          matched)
    roots;
  let root_ids = List.rev !root_ids in
  (* Census closure over the un-annotated graph: which nodes can the
     roots reach at all, annotations notwithstanding. *)
  let closure = Callgraph.closure ~succ:(Callgraph.callees graph) ~seeds:root_ids in
  (* Accepted escapes: empty the summary, count the suppression. *)
  let g = Exnflow.build graph in
  List.iter
    (fun (n : Callgraph.node) ->
      if Syntax.allowed n.allows Rule.exn_escape then begin
        if Hashtbl.mem closure n.id then sink.Finding.allow Rule.exn_escape;
        Exnflow.set_summary g n.id []
      end)
    all_nodes;
  let sol = Exnflow.solve (Exnflow.summaries g) in
  let solution id =
    match Hashtbl.find_opt sol id with Some e -> e | None -> Exnflow.bot
  in
  (* Findings, one per raising root. *)
  List.iter
    (fun id ->
      match Callgraph.node graph id with
      | None -> ()
      | Some n ->
          let res = solution id in
          if not (Exnflow.is_bot res) then begin
            let names = Exnflow.to_strings res in
            let witness =
              match names with
              | first :: _ -> (
                  match Exnflow.explain g sol ~id ~exn:first with
                  | Some chain -> "; e.g. " ^ String.concat " -> " chain
                  | None -> "")
              | [] -> ""
            in
            let loc =
              {
                Location.none with
                loc_start =
                  {
                    Lexing.pos_fname = n.file;
                    pos_lnum = n.line;
                    pos_bol = 0;
                    pos_cnum = 0;
                  };
              }
            in
            sink.Finding.emit Rule.exn_escape loc
              (Printf.sprintf "%s may raise {%s}%s" n.display
                 (String.concat ", " names)
                 witness)
          end)
    root_ids;
  (* Per-function report over the closure, for the CI artifact. *)
  let rows =
    Hashtbl.fold
      (fun id () acc ->
        match Callgraph.node graph id with
        | None -> acc
        | Some n -> (n.display, n.file, n.line, Exnflow.to_strings (solution id)) :: acc)
      closure []
  in
  List.sort compare rows
