type t = { rule : Rule.t; index : int; time : float; detail : string }

let v rule ~index ~time detail = { rule; index; time; detail }

let to_string f =
  let where =
    if f.index < 0 then "stats"
    else if Float.is_nan f.time then Printf.sprintf "#%d" f.index
    else Printf.sprintf "#%d @%.6f" f.index f.time
  in
  Printf.sprintf "%s %s %s: %s"
    (Rule.severity_to_string f.rule.Rule.severity)
    f.rule.Rule.id where f.detail

module Json = Nt_obs.Obs.Json

(* The time is rounded to the microsecond, the text format's precision,
   so a finding reads the same whether its record came from text or
   from tbin. NaN prints as null. *)
let to_json f =
  Json.(
    Obj [ ("rule", Str f.rule.Rule.id); ("family", Str (Rule.family_to_string f.rule.Rule.family));
          ("severity", Str (Rule.severity_to_string f.rule.Rule.severity)); ("index", int f.index);
          ("time", Num (Float.round (f.time *. 1e6) /. 1e6)); ("detail", Str f.detail) ])

let list_to_json fs = Json.to_string (Json.Arr (List.map to_json fs))
