type severity = Info | Warn | Error

let severity_to_string = function Info -> "info" | Warn -> "warn" | Error -> "error"

type t = { id : string; family : string; severity : severity; doc : string }

type selection = { enabled_only : string list option; disabled : string list }

let every_rule = { enabled_only = None; disabled = [] }

let enabled sel rule =
  (match sel.enabled_only with None -> true | Some ids -> List.mem rule.id ids)
  && not (List.mem rule.id sel.disabled)

let unknown rules sel =
  List.filter
    (fun id -> not (List.exists (fun r -> r.id = id) rules))
    (sel.disabled @ Option.value sel.enabled_only ~default:[])

type 'f tally = {
  select : selection;
  cap : int;
  mutable kept_rev : 'f list;
  counts : (string, int) Hashtbl.t;  (** rule id -> findings, capped included *)
  mutable capped : int;
  by_severity : int array;  (** indexed Info, Warn, Error *)
}

let rank = function Info -> 0 | Warn -> 1 | Error -> 2

let tally ~select ~cap =
  {
    select;
    cap;
    kept_rev = [];
    counts = Hashtbl.create 32;
    capped = 0;
    by_severity = Array.make 3 0;
  }

let add t rule f =
  if not (enabled t.select rule) then `Off
  else begin
    let n = Option.value (Hashtbl.find_opt t.counts rule.id) ~default:0 in
    Hashtbl.replace t.counts rule.id (n + 1);
    let s = rank rule.severity in
    t.by_severity.(s) <- t.by_severity.(s) + 1;
    if n < t.cap then begin
      t.kept_rev <- f :: t.kept_rev;
      `Kept
    end
    else begin
      t.capped <- t.capped + 1;
      `Capped
    end
  end
[@@nt.bounded "counts is keyed by the finite rule set; kept_rev is capped per rule by cap"]

let kept t = List.rev t.kept_rev
let count t rule = Option.value (Hashtbl.find_opt t.counts rule.id) ~default:0
let capped t = t.capped
let kept_count t = Hashtbl.fold (fun _ n acc -> acc + n) t.counts 0 - t.capped
let severity_count t sev = t.by_severity.(rank sev)

let fails ~fail_on t =
  match fail_on with
  | None -> false
  | Some sev ->
      List.exists (fun s -> rank s >= rank sev && severity_count t s > 0) [ Info; Warn; Error ]
