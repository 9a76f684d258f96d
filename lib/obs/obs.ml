(* The registry is a flat table of metric objects keyed by
   (name, canonical labels). Handles are resolved once at component
   creation; every hot-path update is then one load, one branch on
   [reg.on], and one store — and when the registry is disabled, just
   the branch. Spans additionally read the clock, so a disabled
   registry skips them entirely. *)

type labels = (string * string) list

let canon_labels labels =
  List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) labels

type reg = {
  mutable on : bool;
  frozen : bool;  (* [null]: set_enabled is ignored *)
  clock : unit -> float;
  mutable last_now : float;  (* monotonic clamp over [clock] *)
  metrics : (string, entry) Hashtbl.t;
  mutable entries_rev : entry list;
  span_aggs : (string, span_agg) Hashtbl.t;
  mutable span_paths_rev : string list;
  mutable stack : open_span list;
  mutable sink : sink option;
}

and sink = {
  on_span_open : string -> float -> unit;
  on_span_close : string -> float -> unit;
  on_reanchor : float -> unit;
}

and entry = { e_name : string; e_labels : labels; e_help : string; e_obj : obj }
and obj = M_counter of counter | M_gauge of gauge | M_hist of histogram
and counter = { c_reg : reg; mutable c_v : int }
and gauge = { g_reg : reg; mutable g_v : float }

and histogram = {
  h_reg : reg;
  h_le : float array;  (* ascending upper bounds *)
  h_counts : int array;  (* length = Array.length h_le + 1 (overflow) *)
  mutable h_sum : float;
  mutable h_count : int;
}

and span_agg = {
  mutable sp_count : int;
  mutable sp_total : float;
  mutable sp_min : float;
  mutable sp_max : float;
}

and open_span = { o_path : string; o_start : float }

type t = reg

let create ?(enabled = true) ?clock () =
  let clock = match clock with Some c -> c | None -> Unix.gettimeofday in
  {
    on = enabled;
    frozen = false;
    clock;
    last_now = neg_infinity;
    metrics = Hashtbl.create 64;
    entries_rev = [];
    span_aggs = Hashtbl.create 16;
    span_paths_rev = [];
    stack = [];
    sink = None;
  }

let null = { (create ~enabled:false ()) with frozen = true }
[@@nt.domain_safe "disabled and frozen: every mutating entry point checks [on]/[frozen] first, so cross-domain sharing never writes"]
let enabled t = t.on
let set_enabled t v = if not t.frozen then t.on <- v
let set_trace_sink t s = if not t.frozen then t.sink <- s

let now t =
  let v = t.clock () in
  if v > t.last_now then t.last_now <- v;
  t.last_now

(* --- registration --- *)

let key name labels =
  String.concat "\x00" (name :: List.concat_map (fun (k, v) -> [ k; v ]) labels)

let kind_name = function
  | M_counter _ -> "counter"
  | M_gauge _ -> "gauge"
  | M_hist _ -> "histogram"

let register t ~labels ~help name make =
  let labels = canon_labels labels in
  let k = key name labels in
  match Hashtbl.find_opt t.metrics k with
  | Some e -> e.e_obj
  | None ->
      let obj = make () in
      (* A name must keep one kind across all label sets. *)
      List.iter
        (fun e ->
          if e.e_name = name && kind_name e.e_obj <> kind_name obj then
            invalid_arg
              (Printf.sprintf "Obs: %s already registered as a %s" name (kind_name e.e_obj)))
        t.entries_rev;
      let e = { e_name = name; e_labels = labels; e_help = help; e_obj = obj } in
      Hashtbl.replace t.metrics k e;
      t.entries_rev <- e :: t.entries_rev;
      obj

let counter t ?(labels = []) ?(help = "") name =
  match register t ~labels ~help name (fun () -> M_counter { c_reg = t; c_v = 0 }) with
  | M_counter c -> c
  | M_gauge _ | M_hist _ -> invalid_arg ("Obs.counter: " ^ name ^ " is not a counter")
[@@nt.raise_ok
  "metric names are static strings chosen at wiring time; a kind clash is a programming error \
   the first registration surfaces"]

let inc c = if c.c_reg.on then c.c_v <- c.c_v + 1
let add c n = if c.c_reg.on && n > 0 then c.c_v <- c.c_v + n
let value c = c.c_v

let gauge t ?(labels = []) ?(help = "") name =
  match register t ~labels ~help name (fun () -> M_gauge { g_reg = t; g_v = 0. }) with
  | M_gauge g -> g
  | M_counter _ | M_hist _ -> invalid_arg ("Obs.gauge: " ^ name ^ " is not a gauge")
[@@nt.raise_ok
  "metric names are static strings chosen at wiring time; a kind clash is a programming error \
   the first registration surfaces"]

let set g v = if g.g_reg.on then g.g_v <- v
let set_max g v = if g.g_reg.on && v > g.g_v then g.g_v <- v
let gauge_value g = g.g_v

let histogram t ?(labels = []) ?(help = "") ~buckets name =
  let make () =
    let le = Array.of_list buckets in
    let sorted = Array.copy le in
    Array.sort Float.compare sorted;
    if le <> sorted then invalid_arg ("Obs.histogram: buckets not ascending for " ^ name);
    M_hist { h_reg = t; h_le = le; h_counts = Array.make (Array.length le + 1) 0; h_sum = 0.; h_count = 0 }
  in
  match register t ~labels ~help name make with
  | M_hist h -> h
  | M_counter _ | M_gauge _ -> invalid_arg ("Obs.histogram: " ^ name ^ " is not a histogram")
[@@nt.raise_ok
  "metric names and bucket lists are static wiring-time values; a kind clash or unsorted \
   buckets is a programming error the first registration surfaces"]

let observe h v =
  if h.h_reg.on then begin
    let n = Array.length h.h_le in
    let i = ref 0 in
    while !i < n && v > h.h_le.(!i) do
      incr i
    done;
    h.h_counts.(!i) <- h.h_counts.(!i) + 1;
    h.h_sum <- h.h_sum +. v;
    h.h_count <- h.h_count + 1
  end

let histogram_count h = h.h_count
let histogram_sum h = h.h_sum

(* --- spans --- *)

let span_agg_for t path =
  match Hashtbl.find_opt t.span_aggs path with
  | Some a -> a
  | None ->
      let a = { sp_count = 0; sp_total = 0.; sp_min = infinity; sp_max = 0. } in
      Hashtbl.replace t.span_aggs path a;
      t.span_paths_rev <- path :: t.span_paths_rev;
      a

let span_open t name =
  if t.on then begin
    let path =
      match t.stack with [] -> name | { o_path; _ } :: _ -> o_path ^ "/" ^ name
    in
    let start = now t in
    t.stack <- { o_path = path; o_start = start } :: t.stack;
    match t.sink with Some s -> s.on_span_open path start | None -> ()
  end

let reanchor t =
  if not t.frozen then begin
    (* Release the monotonic clamp down to the current clock reading,
       then re-stamp every open span at that instant: time the process
       did not exist (checkpoint restore) is attributed to no span, and
       a clock that stepped backward across the restart cannot produce
       a negative or wrapped duration. *)
    t.last_now <- t.clock ();
    t.stack <- List.map (fun sp -> { sp with o_start = t.last_now }) t.stack;
    match t.sink with Some s -> s.on_reanchor t.last_now | None -> ()
  end

let span_close t _name =
  if t.on then
    match t.stack with
    | [] -> ()
    | { o_path; o_start } :: rest ->
        t.stack <- rest;
        (* The clamp in [now] guarantees d >= 0 even if the underlying
           clock stepped backwards mid-span. *)
        let stop = now t in
        let d = Float.max 0. (stop -. o_start) in
        let a = span_agg_for t o_path in
        a.sp_count <- a.sp_count + 1;
        a.sp_total <- a.sp_total +. d;
        if d < a.sp_min then a.sp_min <- d;
        if d > a.sp_max then a.sp_max <- d;
        (match t.sink with Some s -> s.on_span_close o_path stop | None -> ())

let span_record t name ~seconds =
  if t.on then begin
    let path =
      match t.stack with [] -> name | { o_path; _ } :: _ -> o_path ^ "/" ^ name
    in
    let d = Float.max 0. seconds in
    let a = span_agg_for t path in
    a.sp_count <- a.sp_count + 1;
    a.sp_total <- a.sp_total +. d;
    if d < a.sp_min then a.sp_min <- d;
    if d > a.sp_max then a.sp_max <- d
  end

let with_span t name f =
  if not t.on then f ()
  else begin
    span_open t name;
    Fun.protect ~finally:(fun () -> span_close t name) f
  end

(* --- snapshots --- *)

type metric_value =
  | Counter of int
  | Gauge of float
  | Histogram of { le : float list; counts : int list; sum : float; count : int }

type metric = { name : string; labels : labels; help : string; value : metric_value }
type span_stat = { path : string; count : int; total_s : float; min_s : float; max_s : float }

type snapshot = {
  taken_at : float;
  snap_enabled : bool;
  metrics : metric list;
  spans : span_stat list;
}

let snapshot t =
  let metrics =
    List.rev_map
      (fun e ->
        let value =
          match e.e_obj with
          | M_counter c -> Counter c.c_v
          | M_gauge g -> Gauge g.g_v
          | M_hist h ->
              Histogram
                {
                  le = Array.to_list h.h_le;
                  counts = Array.to_list h.h_counts;
                  sum = h.h_sum;
                  count = h.h_count;
                }
        in
        { name = e.e_name; labels = e.e_labels; help = e.e_help; value })
      t.entries_rev
  in
  let metrics =
    List.sort (fun a b -> compare (a.name, a.labels) (b.name, b.labels)) metrics
  in
  let spans =
    List.rev_map
      (fun path ->
        let a = Hashtbl.find t.span_aggs path in
        {
          path;
          count = a.sp_count;
          total_s = a.sp_total;
          min_s = (if a.sp_count = 0 then 0. else a.sp_min);
          max_s = a.sp_max;
        })
      t.span_paths_rev
  in
  let spans = List.sort (fun a b -> String.compare a.path b.path) spans in
  { taken_at = (if t.on then now t else t.clock ()); snap_enabled = t.on; metrics; spans }

let get_counter snap ?(labels = []) name =
  let labels = canon_labels labels in
  List.find_map
    (fun m ->
      match m.value with
      | Counter v when m.name = name && m.labels = labels -> Some v
      | _ -> None)
    snap.metrics

let sum_counter snap name =
  List.fold_left
    (fun acc m -> match m.value with Counter v when m.name = name -> acc + v | _ -> acc)
    0 snap.metrics

let get_gauge snap ?(labels = []) name =
  let labels = canon_labels labels in
  List.find_map
    (fun m ->
      match m.value with
      | Gauge v when m.name = name && m.labels = labels -> Some v
      | _ -> None)
    snap.metrics

let get_span snap path = List.find_opt (fun s -> s.path = path) snap.spans

(* --- JSON: the one parser and the one printer --- *)

module Json = struct
  type v =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of v list
    | Obj of (string * v) list

  exception Fail of string

  let max_depth = 512

  (* Raises [Fail]; [parse] is the one caller, so the handler there
     visibly covers every raise. *)
  let parse_exn s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Fail (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected %c" c)
    in
    let literal word value =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then begin
        pos := !pos + l;
        value
      end
      else fail ("expected " ^ word)
    in
    let parse_hex4 () =
      if !pos + 4 > n then fail "truncated \\u escape";
      let h = String.sub s !pos 4 in
      pos := !pos + 4;
      match int_of_string_opt ("0x" ^ h) with
      | Some v -> v
      | None -> fail "bad \\u escape"
    in
    let utf8_of_code b cp =
      if cp < 0x80 then Buffer.add_char b (Char.chr cp)
      else if cp < 0x800 then begin
        Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
        Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
      end
      else if cp < 0x10000 then begin
        Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
        Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
        Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
      end
      else begin
        Buffer.add_char b (Char.chr (0xF0 lor (cp lsr 18)));
        Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
        Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
        Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
      end
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' -> (
            advance ();
            match peek () with
            | Some '"' -> advance (); Buffer.add_char b '"'; go ()
            | Some '\\' -> advance (); Buffer.add_char b '\\'; go ()
            | Some '/' -> advance (); Buffer.add_char b '/'; go ()
            | Some 'b' -> advance (); Buffer.add_char b '\b'; go ()
            | Some 'f' -> advance (); Buffer.add_char b '\012'; go ()
            | Some 'n' -> advance (); Buffer.add_char b '\n'; go ()
            | Some 'r' -> advance (); Buffer.add_char b '\r'; go ()
            | Some 't' -> advance (); Buffer.add_char b '\t'; go ()
            | Some 'u' ->
                advance ();
                let cp = parse_hex4 () in
                let cp =
                  (* Combine a surrogate pair when one follows. *)
                  if cp >= 0xD800 && cp <= 0xDBFF && !pos + 6 <= n && s.[!pos] = '\\'
                     && s.[!pos + 1] = 'u'
                  then begin
                    pos := !pos + 2;
                    let lo = parse_hex4 () in
                    if lo >= 0xDC00 && lo <= 0xDFFF then
                      0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
                    else fail "bad surrogate pair"
                  end
                  else cp
                in
                utf8_of_code b cp;
                go ()
            | _ -> fail "bad escape")
        | Some c ->
            advance ();
            Buffer.add_char b c;
            go ()
      in
      go ();
      Buffer.contents b
    in
    let parse_number () =
      let start = !pos in
      let is_num_char c =
        match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
      in
      while (match peek () with Some c when is_num_char c -> true | _ -> false) do
        advance ()
      done;
      if !pos = start then fail "expected number";
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> f
      | None -> fail "bad number"
    in
    (* [depth] counts the arrays and objects around the value; the
       bound keeps a hostile input from recursing without limit. *)
    let rec parse_value depth =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some ('{' | '[') when depth >= max_depth -> raise (Fail "nesting too deep")
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin
            advance ();
            Obj []
          end
          else begin
            let rec members acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value (depth + 1) in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  members ((k, v) :: acc)
              | Some '}' ->
                  advance ();
                  List.rev ((k, v) :: acc)
              | _ -> fail "expected , or }"
            in
            Obj (members [])
          end
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin
            advance ();
            Arr []
          end
          else begin
            let rec elems acc =
              let v = parse_value (depth + 1) in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  elems (v :: acc)
              | Some ']' ->
                  advance ();
                  List.rev (v :: acc)
              | _ -> fail "expected , or ]"
            in
            Arr (elems [])
          end
      | Some '"' -> Str (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> Num (parse_number ())
    in
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v

  let parse s = match parse_exn s with v -> Ok v | exception Fail msg -> Error msg

  (* The printer: compact layout, one string rule, one number rule.
     An integral value under 2^53 prints as an integer; any other
     finite value as the shortest of %.15g/%.16g/%.17g that reads back
     to the same double; a non-finite one as null. *)
  let number f =
    if not (Float.is_finite f) then "null"
    else if Float.is_integer f && Float.abs f < 9007199254740992. then
      if f = 0. && Float.sign_bit f then "-0" else string_of_int (int_of_float f)
    else
      let s = Printf.sprintf "%.15g" f in
      if float_of_string_opt s = Some f then s
      else
        let s = Printf.sprintf "%.16g" f in
        if float_of_string_opt s = Some f then s else Printf.sprintf "%.17g" f

  let hex = "0123456789abcdef"

  let add_string b s =
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b "\\u00";
            Buffer.add_char b hex.[Char.code c lsr 4];
            Buffer.add_char b hex.[Char.code c land 15]
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"'

  let rec to_buffer b = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (if x then "true" else "false")
    | Num f -> Buffer.add_string b (number f)
    | Str s -> add_string b s
    | Arr l ->
        Buffer.add_char b '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char b ',';
            to_buffer b v)
          l;
        Buffer.add_char b ']'
    | Obj kvs ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            add_string b k;
            Buffer.add_char b ':';
            to_buffer b v)
          kvs;
        Buffer.add_char b '}'

  let to_string v =
    let b = Buffer.create 1024 in
    to_buffer b v;
    Buffer.contents b

  let int i = Num (float_of_int i)

  let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
  let to_num = function Num f -> Some f | _ -> None
  let to_str = function Str s -> Some s | _ -> None
  let to_list = function Arr l -> Some l | _ -> None

  let to_int = function
    | Num f when Float.is_integer f && Float.abs f < 9007199254740992. -> Some (int_of_float f)
    | _ -> None

  let fields keys = function
    | Obj kvs -> (
        let rec unique = function
          | [] -> Ok ()
          | (k, _) :: rest ->
              if List.mem_assoc k rest then Error ("duplicate key " ^ k)
              else if not (List.mem k keys) then Error ("unknown key " ^ k)
              else unique rest
        in
        match unique kvs with
        | Error e -> Error e
        | Ok () ->
            List.fold_right
              (fun k acc ->
                match (acc, List.assoc_opt k kvs) with
                | Ok vs, Some v -> Ok (v :: vs)
                | Ok _, None -> Error ("missing key " ^ k)
                | (Error _ as e), _ -> e)
              keys (Ok []))
    | _ -> Error "expected an object"

  let labels_match want (m : v) =
    let want = canon_labels want in
    match member "labels" m with
    | Some (Obj kvs) ->
        let have =
          canon_labels
            (List.filter_map (fun (k, v) -> Option.map (fun s -> (k, s)) (to_str v)) kvs)
        in
        have = want
    | _ -> want = []

  let find_metric doc ?(labels = []) name =
    match member "metrics" doc with
    | Some (Arr ms) ->
        List.find_opt
          (fun m -> member "name" m = Some (Str name) && labels_match labels m)
          ms
    | _ -> None

  let metric_number doc ?labels name =
    Option.bind (find_metric doc ?labels name) (fun m -> Option.bind (member "value" m) to_num)
end

(* --- JSON export --- *)

let snapshot_json snap =
  let open Json in
  let metric m =
    let kind, fields =
      match m.value with
      | Counter v -> ("counter", [ ("value", int v) ])
      | Gauge v -> ("gauge", [ ("value", Num v) ])
      | Histogram { le; counts; sum; count } ->
          ( "histogram",
            [ ("le", Arr (List.map (fun f -> Num f) le)); ("counts", Arr (List.map int counts));
              ("sum", Num sum); ("count", int count) ] )
    in
    let labels = Obj (List.map (fun (k, v) -> (k, Str v)) m.labels) in
    let help = if m.help = "" then [] else [ ("help", Str m.help) ] in
    Obj ((("name", Str m.name) :: ("kind", Str kind) :: ("labels", labels) :: help) @ fields)
  in
  let span s =
    Obj [ ("path", Str s.path); ("count", int s.count); ("total_seconds", Num s.total_s);
          ("min_seconds", Num s.min_s); ("max_seconds", Num s.max_s) ]
  in
  Obj [ ("schema", Str Nt_formats.Formats.obs_snapshot); ("taken_at", Num snap.taken_at);
        ("enabled", Bool snap.snap_enabled); ("metrics", Arr (List.map metric snap.metrics));
        ("spans", Arr (List.map span snap.spans)) ]

let to_json snap = Json.to_string (snapshot_json snap) ^ "\n"

(* --- Prometheus text export --- *)

let prom_name name =
  String.map (fun c -> match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_') name

let prom_label_value v =
  let b = Buffer.create (String.length v + 2) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let prom_labels labels =
  match labels with
  | [] -> ""
  | _ ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" (prom_name k) (prom_label_value v)) labels)
      ^ "}"

(* Prometheus spells the non-finite values out; finite ones share the
   JSON number rule. *)
let prom_float f =
  if Float.is_nan f then "NaN"
  else if f = infinity then "+Inf"
  else if f = neg_infinity then "-Inf"
  else Json.number f

let to_prometheus snap =
  let b = Buffer.create 4096 in
  let seen_header = Hashtbl.create 16 in
  let header name kind help =
    if not (Hashtbl.mem seen_header name) then begin
      Hashtbl.replace seen_header name ();
      if help <> "" then Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" name help);
      Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name kind)
    end
  in
  List.iter
    (fun m ->
      let pname = prom_name m.name in
      match m.value with
      | Counter v ->
          header pname "counter" m.help;
          Buffer.add_string b (Printf.sprintf "%s%s %d\n" pname (prom_labels m.labels) v)
      | Gauge v ->
          header pname "gauge" m.help;
          Buffer.add_string b
            (Printf.sprintf "%s%s %s\n" pname (prom_labels m.labels) (prom_float v))
      | Histogram { le; counts; sum; count } ->
          header pname "histogram" m.help;
          let cum = ref 0 in
          List.iteri
            (fun i c ->
              cum := !cum + c;
              let bound =
                if i < List.length le then prom_float (List.nth le i) else "+Inf"
              in
              Buffer.add_string b
                (Printf.sprintf "%s_bucket%s %d\n" pname
                   (prom_labels (m.labels @ [ ("le", bound) ]))
                   !cum))
            counts;
          Buffer.add_string b
            (Printf.sprintf "%s_sum%s %s\n" pname (prom_labels m.labels) (prom_float sum));
          Buffer.add_string b
            (Printf.sprintf "%s_count%s %d\n" pname (prom_labels m.labels) count))
    snap.metrics;
  if snap.spans <> [] then begin
    Buffer.add_string b "# TYPE nt_span_seconds_total counter\n";
    List.iter
      (fun s ->
        Buffer.add_string b
          (Printf.sprintf "nt_span_seconds_total{path=\"%s\"} %s\n" (prom_label_value s.path)
             (prom_float s.total_s)))
      snap.spans;
    Buffer.add_string b "# TYPE nt_span_count counter\n";
    List.iter
      (fun s ->
        Buffer.add_string b
          (Printf.sprintf "nt_span_count{path=\"%s\"} %d\n" (prom_label_value s.path) s.count))
      snap.spans
  end;
  Buffer.contents b
