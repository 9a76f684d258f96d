type t = { rule : Rule.t; file : string; line : int; col : int; detail : string }

let v rule ~file ~line ~col detail = { rule; file; line; col; detail }

let of_loc rule (loc : Location.t) detail =
  {
    rule;
    file = loc.loc_start.pos_fname;
    line = loc.loc_start.pos_lnum;
    col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol;
    detail;
  }

let compare a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c
      else
        let c = String.compare a.rule.id b.rule.id in
        if c <> 0 then c else String.compare a.detail b.detail

let to_string f =
  let where = if f.line <= 0 then f.file else Printf.sprintf "%s:%d:%d" f.file f.line f.col in
  Printf.sprintf "%s %s %s: %s"
    (Nt_rules.severity_to_string f.rule.severity)
    f.rule.id where f.detail

module Json = Nt_obs.Obs.Json

let to_json f =
  Json.(
    Obj [ ("rule", Str f.rule.id); ("family", Str f.rule.family);
          ("severity", Str (Nt_rules.severity_to_string f.rule.severity)); ("file", Str f.file);
          ("line", int f.line); ("col", int f.col); ("detail", Str f.detail) ])

let list_to_json fs = Json.to_string (Json.Arr (List.map to_json fs))

(* SARIF 2.1.0, one run, one result per finding.  The rule registry
   becomes the driver's rules array so viewers can show family + doc;
   severities map Info/Warn/Error -> note/warning/error.  Lines and
   columns are clamped to 1 because SARIF forbids 0 (synthesized
   whole-unit findings anchor at line 1). *)
let sarif_level (s : Nt_rules.severity) =
  Json.Str (match s with Info -> "note" | Warn -> "warning" | Error -> "error")

let list_to_sarif fs =
  let open Json in
  let text s = Obj [ ("text", Str s) ] in
  let rule (r : Rule.t) =
    Obj [ ("id", Str r.id); ("shortDescription", text r.doc);
          ("properties", Obj [ ("family", Str r.family) ]);
          ("defaultConfiguration", Obj [ ("level", sarif_level r.severity) ]) ]
  in
  let result f =
    let region =
      Obj [ ("startLine", int (max 1 f.line)); ("startColumn", int (max 1 (f.col + 1))) ]
    in
    let location = Obj [ ("artifactLocation", Obj [ ("uri", Str f.file) ]); ("region", region) ] in
    Obj [ ("ruleId", Str f.rule.id); ("level", sarif_level f.rule.severity);
          ("message", text f.detail);
          ("locations", Arr [ Obj [ ("physicalLocation", location) ] ]) ]
  in
  let driver = Obj [ ("name", Str "ntcheck"); ("rules", Arr (List.map rule Rule.all)) ] in
  let run = Obj [ ("tool", Obj [ ("driver", driver) ]); ("results", Arr (List.map result fs)) ] in
  to_string
    (Obj
       [ ("version", Str "2.1.0"); ("$schema", Str "https://json.schemastore.org/sarif-2.1.0.json");
         ("runs", Arr [ run ]) ])

type sink = { emit : Rule.t -> Location.t -> string -> unit; allow : Rule.t -> unit }
