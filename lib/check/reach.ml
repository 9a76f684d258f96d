type t = { reachable : (string, unit) Hashtbl.t; missing_roots : string list }

let compute ~roots (units : Loader.unit_info list) =
  let imports = Hashtbl.create 64 in
  List.iter
    (fun (u : Loader.unit_info) ->
      if Loader.is_impl u then
        match Hashtbl.find_opt imports u.name with
        | Some prev -> Hashtbl.replace imports u.name (u.imports @ prev)
        | None -> Hashtbl.add imports u.name u.imports)
    units;
  let known = Hashtbl.create 64 in
  List.iter (fun (u : Loader.unit_info) -> Hashtbl.replace known u.name ()) units;
  let succ name =
    match Hashtbl.find_opt imports name with
    | Some deps -> List.filter (Hashtbl.mem known) deps
    | None -> []
  in
  let matches root =
    List.filter_map
      (fun (u : Loader.unit_info) ->
        if Syntax.unit_matches ~unit:u.name root then Some u.name else None)
      units
  in
  {
    reachable = Callgraph.closure ~succ ~seeds:(List.concat_map matches roots);
    missing_roots = List.filter (fun root -> matches root = []) roots;
  }

let missing_roots t = t.missing_roots
let mem t name = Hashtbl.mem t.reachable name

let to_list t =
  List.sort String.compare (Hashtbl.fold (fun k () acc -> k :: acc) t.reachable [])
