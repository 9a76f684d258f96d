(* nt_obs tests: metric semantics, label canonicalisation, span nesting
   under a fake clock, disabled-mode no-ops, both exporters, the
   embedded JSON parser, and a Pipeline integration test asserting
   packet conservation straight from the exported JSON. *)

module Obs = Nt_obs.Obs
module Json = Nt_obs.Obs.Json

(* --- counters --- *)

let test_counter_basics () =
  let t = Obs.create () in
  let c = Obs.counter t ~help:"test" "c.basic" in
  Alcotest.(check int) "starts at zero" 0 (Obs.value c);
  Obs.inc c;
  Obs.add c 41;
  Alcotest.(check int) "inc + add" 42 (Obs.value c);
  Obs.add c (-7);
  Alcotest.(check int) "negative add ignored (monotone)" 42 (Obs.value c)

let test_counter_idempotent_registration () =
  let t = Obs.create () in
  let a = Obs.counter t "c.same" in
  let b = Obs.counter t "c.same" in
  Obs.inc a;
  Obs.inc b;
  Alcotest.(check int) "both handles hit one cell" 2 (Obs.value a);
  Alcotest.(check int)
    "snapshot sees a single metric" 1
    (List.length
       (List.filter (fun (m : Obs.metric) -> m.name = "c.same") (Obs.snapshot t).metrics))

let test_cross_kind_registration_rejected () =
  let t = Obs.create () in
  ignore (Obs.counter t "c.kind");
  match Obs.gauge t "c.kind" with
  | _ -> Alcotest.fail "re-registering a counter as a gauge must raise"
  | exception Invalid_argument _ -> ()

(* --- labels --- *)

let test_labels_distinguish_and_canonicalise () =
  let t = Obs.create () in
  let red = Obs.counter t ~labels:[ ("colour", "red"); ("shape", "dot") ] "c.lab" in
  let blue = Obs.counter t ~labels:[ ("colour", "blue"); ("shape", "dot") ] "c.lab" in
  (* Same pairs in the opposite order resolve to the same cell. *)
  let red2 = Obs.counter t ~labels:[ ("shape", "dot"); ("colour", "red") ] "c.lab" in
  Obs.inc red;
  Obs.inc red2;
  Obs.inc blue;
  Alcotest.(check int) "label order is canonical" 2 (Obs.value red);
  Alcotest.(check int) "distinct label sets are distinct" 1 (Obs.value blue);
  let snap = Obs.snapshot t in
  Alcotest.(check (option int))
    "lookup by labels" (Some 2)
    (Obs.get_counter snap ~labels:[ ("colour", "red"); ("shape", "dot") ] "c.lab");
  Alcotest.(check int) "sum across label sets" 3 (Obs.sum_counter snap "c.lab")

(* --- gauges and histograms --- *)

let test_gauge () =
  let t = Obs.create () in
  let g = Obs.gauge t "g.depth" in
  Obs.set g 3.;
  Alcotest.(check (float 0.)) "set" 3. (Obs.gauge_value g);
  Obs.set_max g 1.;
  Alcotest.(check (float 0.)) "set_max keeps the peak" 3. (Obs.gauge_value g);
  Obs.set_max g 9.;
  Alcotest.(check (float 0.)) "set_max moves up" 9. (Obs.gauge_value g)

let test_histogram () =
  let t = Obs.create () in
  let h = Obs.histogram t ~buckets:[ 1.; 5. ] "h.lat" in
  List.iter (Obs.observe h) [ 0.5; 3.; 10. ];
  Alcotest.(check int) "count" 3 (Obs.histogram_count h);
  Alcotest.(check (float 1e-9)) "sum" 13.5 (Obs.histogram_sum h);
  match
    List.find_opt (fun (m : Obs.metric) -> m.name = "h.lat") (Obs.snapshot t).metrics
  with
  | Some { value = Obs.Histogram { le; counts; sum; count }; _ } ->
      Alcotest.(check (list (float 0.))) "bounds" [ 1.; 5. ] le;
      Alcotest.(check (list int)) "per-bucket counts + overflow" [ 1; 1; 1 ] counts;
      Alcotest.(check (float 1e-9)) "snap sum" 13.5 sum;
      Alcotest.(check int) "snap count" 3 count
  | _ -> Alcotest.fail "histogram missing from snapshot"

(* --- spans --- *)

let test_span_nesting_and_timing () =
  let clock = ref 100. in
  let t = Obs.create ~clock:(fun () -> !clock) () in
  Obs.span_open t "outer";
  clock := 101.;
  Obs.span_open t "inner";
  clock := 103.;
  Obs.span_close t "inner";
  clock := 106.;
  Obs.span_close t "outer";
  let snap = Obs.snapshot t in
  (match Obs.get_span snap "outer" with
  | Some s ->
      Alcotest.(check int) "outer count" 1 s.count;
      Alcotest.(check (float 1e-9)) "outer total" 6. s.total_s
  | None -> Alcotest.fail "outer span missing");
  match Obs.get_span snap "outer/inner" with
  | Some s ->
      Alcotest.(check int) "nested count" 1 s.count;
      Alcotest.(check (float 1e-9)) "nested total" 2. s.total_s;
      Alcotest.(check (float 1e-9)) "min = max on one sample" s.min_s s.max_s
  | None -> Alcotest.fail "nested span recorded under parent/child path"

let test_span_monotonic_clamp () =
  (* A clock that runs backwards must never produce a negative span. *)
  let clock = ref 50. in
  let t = Obs.create ~clock:(fun () -> !clock) () in
  Obs.span_open t "back";
  clock := 40.;
  Obs.span_close t "back";
  match Obs.get_span (Obs.snapshot t) "back" with
  | Some s -> Alcotest.(check bool) "non-negative duration" true (s.total_s >= 0.)
  | None -> Alcotest.fail "span missing"

let test_reanchor_forward_jump () =
  (* Checkpoint restore after downtime: the wall clock leapt forward
     while the monitor was dead. Re-anchoring must charge the open span
     only for time after the restore. *)
  let clock = ref 100. in
  let t = Obs.create ~clock:(fun () -> !clock) () in
  Obs.span_open t "svc";
  clock := 500.;
  (* hours of downtime *)
  Obs.reanchor t;
  clock := 501.5;
  Obs.span_close t "svc";
  match Obs.get_span (Obs.snapshot t) "svc" with
  | Some s -> Alcotest.(check (float 1e-9)) "downtime excluded" 1.5 s.total_s
  | None -> Alcotest.fail "span missing"

let test_reanchor_backward_clock () =
  (* Restoring on a machine whose clock is behind the checkpointed one:
     the monotonic clamp must release downward instead of freezing the
     registry clock in the future (which would zero every duration). *)
  let clock = ref 100. in
  let t = Obs.create ~clock:(fun () -> !clock) () in
  Obs.span_open t "svc";
  clock := 40.;
  Obs.reanchor t;
  Alcotest.(check (float 1e-9)) "registry clock released down" 40. (Obs.now t);
  clock := 41.;
  Obs.span_close t "svc";
  match Obs.get_span (Obs.snapshot t) "svc" with
  | Some s -> Alcotest.(check (float 1e-9)) "post-restore time only" 1. s.total_s
  | None -> Alcotest.fail "span missing"

let test_with_span_closes_on_raise () =
  let clock = ref 0. in
  let t = Obs.create ~clock:(fun () -> !clock) () in
  (try
     Obs.with_span t "boom" (fun () ->
         clock := 2.;
         failwith "inside")
   with Failure _ -> ());
  (* If "boom" leaked open, this span would nest under it. *)
  Obs.with_span t "after" (fun () -> clock := 3.);
  let snap = Obs.snapshot t in
  Alcotest.(check bool) "raising span recorded" true (Obs.get_span snap "boom" <> None);
  Alcotest.(check bool) "later span is top-level" true (Obs.get_span snap "after" <> None);
  Obs.span_close t "stray";
  Alcotest.(check int) "extra close is ignored" 2 (List.length (Obs.snapshot t).spans)

(* --- disabled mode --- *)

let test_disabled_noop () =
  let reads = ref 0 in
  let t =
    Obs.create ~enabled:false
      ~clock:(fun () ->
        incr reads;
        0.)
      ()
  in
  let reads_at_create = !reads in
  let c = Obs.counter t "c.off" in
  let g = Obs.gauge t "g.off" in
  let h = Obs.histogram t ~buckets:[ 1. ] "h.off" in
  Obs.inc c;
  Obs.add c 10;
  Obs.set g 5.;
  Obs.observe h 2.;
  Obs.with_span t "s.off" Fun.id;
  Alcotest.(check int) "counter untouched" 0 (Obs.value c);
  Alcotest.(check (float 0.)) "gauge untouched" 0. (Obs.gauge_value g);
  Alcotest.(check int) "histogram untouched" 0 (Obs.histogram_count h);
  (* Taking the snapshot below reads the clock once for taken_at; the
     updates and spans above must not have. *)
  Alcotest.(check int) "disabled spans never read the clock" reads_at_create !reads;
  Alcotest.(check bool) "no spans recorded" true ((Obs.snapshot t).spans = []);
  Alcotest.(check bool) "snapshot says disabled" false (Obs.snapshot t).snap_enabled

let test_null_registry_stays_disabled () =
  Obs.set_enabled Obs.null true;
  Alcotest.(check bool) "null is frozen" false (Obs.enabled Obs.null);
  let c = Obs.counter Obs.null "c.null" in
  Obs.inc c;
  Alcotest.(check int) "null counters never move" 0 (Obs.value c)

(* --- exporters and the JSON parser --- *)

let test_json_roundtrip () =
  let t = Obs.create () in
  Obs.add (Obs.counter t ~labels:[ ("kind", "x") ] ~help:"things" "c.json") 7;
  Obs.set (Obs.gauge t "g.json") 2.5;
  Obs.with_span t "stage" Fun.id;
  let doc =
    match Json.parse (Obs.to_json (Obs.snapshot t)) with
    | Ok v -> v
    | Error e -> Alcotest.failf "export does not parse: %s" e
  in
  Alcotest.(check (option string))
    "schema tag" (Some Nt_formats.Formats.obs_snapshot)
    (Option.bind (Json.member "schema" doc) Json.to_str);
  Alcotest.(check (option (float 0.)))
    "labeled counter via metric_number" (Some 7.)
    (Json.metric_number doc ~labels:[ ("kind", "x") ] "c.json");
  Alcotest.(check (option (float 0.)))
    "gauge via metric_number" (Some 2.5) (Json.metric_number doc "g.json");
  Alcotest.(check bool) "wrong labels miss" true
    (Json.find_metric doc ~labels:[ ("kind", "y") ] "c.json" = None);
  let spans = Option.bind (Json.member "spans" doc) Json.to_list in
  Alcotest.(check (option int)) "span exported" (Some 1) (Option.map List.length spans)

let test_json_parser_rejects_garbage () =
  (match Json.parse "{\"a\": 1} trailing" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage accepted");
  match Json.parse "{\"a\": }" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed value accepted"

(* Json.to_string and Json.parse are inverses on every finite value:
   strings over all 256 byte values, floats at the edges of the number
   rule (signed zeros, subnormals, integers around 2^53, 0.1). *)
let gen_json =
  let open QCheck.Gen in
  let str = string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 12) in
  let num =
    oneof
      [
        oneofl
          [ 0.; -0.; 0.1; 1e-310; -5e-324; Float.min_float; Float.max_float; 9007199254740991.;
            9007199254740992.; 9007199254740993.; -9007199254740992.; 1e300; 1_792_242_184.2 ];
        map (fun i -> float_of_int i) int;
        map (fun i -> 9007199254740992. +. float_of_int (i - 8)) (int_bound 16);
        map Int64.float_of_bits ui64 >|= (fun f -> if Float.is_finite f then f else 0.5);
        float_range (-1e6) 1e6;
      ]
  in
  sized
  @@ fix (fun self n ->
         let leaf =
           oneof
             [
               return Json.Null;
               map (fun b -> Json.Bool b) bool;
               map (fun f -> Json.Num f) num;
               map (fun s -> Json.Str s) str;
             ]
         in
         if n <= 0 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun l -> Json.Arr l) (list_size (int_bound 4) (self (n / 4))));
               ( 1,
                 map (fun l -> Json.Obj l) (list_size (int_bound 4) (pair str (self (n / 4)))) );
             ])

let prop_json_roundtrip =
  QCheck.Test.make ~count:500 ~name:"json: parse (to_string v) = Ok v"
    (QCheck.make ~print:Json.to_string gen_json)
    (fun v -> Json.parse (Json.to_string v) = Ok v)

let test_json_nonfinite_is_null () =
  Alcotest.(check string) "nan" "null" (Json.to_string (Json.Num Float.nan));
  Alcotest.(check string) "infinities" "[null,null]"
    (Json.to_string (Json.Arr [ Json.Num infinity; Json.Num neg_infinity ]))

(* The parser stops at a fixed depth instead of recursing once per
   level of a hostile input. *)
let test_json_depth_bound () =
  let deep n = String.make n '[' ^ String.make n ']' in
  let t0 = Unix.gettimeofday () in
  Alcotest.(check (result reject string))
    "1M-deep input" (Error "nesting too deep")
    (Result.map ignore (Json.parse (String.make 1_000_000 '[')));
  Alcotest.(check bool) "fails quickly" true (Unix.gettimeofday () -. t0 < 1.);
  Alcotest.(check bool) "at the bound" true (Result.is_ok (Json.parse (deep Json.max_depth)));
  Alcotest.(check (result reject string))
    "past the bound" (Error "nesting too deep")
    (Result.map ignore (Json.parse (deep (Json.max_depth + 1))));
  let rec objects n = if n = 0 then "1" else {|{"a":|} ^ objects (n - 1) ^ "}" in
  Alcotest.(check bool) "objects at the bound" true
    (Result.is_ok (Json.parse (objects Json.max_depth)));
  Alcotest.(check bool) "objects past the bound" true
    (Result.is_error (Json.parse (objects (Json.max_depth + 1))))

let test_json_readers () =
  let cko = Alcotest.(check (option int)) in
  cko "integer" (Some 42) (Json.to_int (Json.Num 42.));
  cko "negative" (Some (-7)) (Json.to_int (Json.Num (-7.)));
  cko "2^53 - 1" (Some 9007199254740991) (Json.to_int (Json.Num 9007199254740991.));
  cko "2^53" None (Json.to_int (Json.Num 9007199254740992.));
  cko "-2^53" None (Json.to_int (Json.Num (-9007199254740992.)));
  cko "fraction" None (Json.to_int (Json.Num 1.5));
  cko "nan" None (Json.to_int (Json.Num Float.nan));
  cko "null" None (Json.to_int Json.Null);
  let doc = Json.Obj [ ("b", Json.int 2); ("a", Json.int 1) ] in
  let fields keys v = Result.map (List.map Json.to_int) (Json.fields keys v) in
  let ckf = Alcotest.(check (result (list (option int)) reject)) in
  ckf "in key order" (Ok [ Some 1; Some 2 ]) (fields [ "a"; "b" ] doc);
  let refused name keys v =
    Alcotest.(check bool) name true (Result.is_error (Json.fields keys v))
  in
  refused "missing key" [ "a"; "b"; "c" ] doc;
  refused "unknown key" [ "a" ] doc;
  refused "duplicated key" [ "a"; "b" ]
    (Json.Obj [ ("a", Json.Null); ("b", Json.Null); ("a", Json.Null) ]);
  refused "not an object" [] (Json.Arr [])

let test_prometheus_export () =
  let t = Obs.create () in
  Obs.add (Obs.counter t ~labels:[ ("reason", "bad") ] ~help:"oops" "capture.decode_failure") 3;
  Obs.observe (Obs.histogram t ~buckets:[ 1. ] "h.prom") 0.5;
  Obs.with_span t "stage" Fun.id;
  let text = Obs.to_prometheus (Obs.snapshot t) in
  let has needle =
    let n = String.length needle and m = String.length text in
    let rec go i = i + n <= m && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "sanitised counter line" true
    (has "capture_decode_failure{reason=\"bad\"} 3");
  Alcotest.(check bool) "type header" true (has "# TYPE capture_decode_failure counter");
  Alcotest.(check bool) "histogram +Inf bucket" true (has "h_prom_bucket{le=\"+Inf\"} 1");
  Alcotest.(check bool) "span series" true (has "nt_span_count{path=\"stage\"} 1")

(* --- socket exporter --- *)

(* The exporter is single-threaded by design: all its work happens in
   [poll]. The test client therefore has to be non-blocking too,
   interleaving its own connect/write/read with the exporter's polls. *)
let fetch_interleaved exp ~port ~path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.set_nonblock fd;
  (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK), _, _) -> ());
  let request = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path in
  let buf = Buffer.create 4096 in
  let sent = ref 0 in
  let closed = ref false in
  let rounds = ref 0 in
  while (not !closed) && !rounds < 500 do
    incr rounds;
    Nt_obs.Exporter.poll exp;
    (if !sent < String.length request then
       match Unix.write_substring fd request !sent (String.length request - !sent) with
       | n -> sent := !sent + n
       | exception
           Unix.Unix_error
             ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINPROGRESS | Unix.ENOTCONN), _, _) ->
           ()
     else
       let b = Bytes.create 4096 in
       match Unix.read fd b 0 4096 with
       | 0 -> closed := true
       | n -> Buffer.add_subbytes buf b 0 n
       | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
    if not !closed then Unix.sleepf 0.001
  done;
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Buffer.contents buf

let test_exporter_serves_endpoints () =
  let t = Obs.create () in
  Obs.add (Obs.counter t ~help:"records ingested" "mon.ingested") 42;
  match Nt_obs.Exporter.create t with
  | Error e -> Alcotest.fail ("exporter create failed: " ^ e)
  | Ok exp ->
      let port = Nt_obs.Exporter.port exp in
      Alcotest.(check bool) "ephemeral port assigned" true (port > 0);
      let has hay needle =
        let n = String.length needle and m = String.length hay in
        let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
        go 0
      in
      let metrics = fetch_interleaved exp ~port ~path:"/metrics" in
      Alcotest.(check bool) "/metrics 200" true (has metrics "200 OK");
      Alcotest.(check bool) "/metrics body" true (has metrics "mon_ingested 42");
      let json = fetch_interleaved exp ~port ~path:"/json" in
      Alcotest.(check bool) "/json 200" true (has json "200 OK");
      Alcotest.(check bool) "/json body" true (has json "\"mon.ingested\"");
      let missing = fetch_interleaved exp ~port ~path:"/nope" in
      Alcotest.(check bool) "unknown path 404" true (has missing "404");
      Nt_obs.Exporter.close exp;
      (* closed exporter: connection refused, not a hang *)
      (match
         Nt_obs.Exporter.scrape ~timeout_s:1.0 ~addr:"127.0.0.1" ~port ~path:"/metrics" ()
       with
      | Ok _ -> Alcotest.fail "scrape succeeded after close"
      | Error _ -> ())

(* --- timeline: Chrome trace-event export --- *)

module Timeline = Nt_obs.Timeline

(* Decode a trace document and enforce the three per-track invariants
   the writer promises: timestamps monotone non-decreasing, every End
   matches the innermost open Begin (strict nesting), and no End
   without a Begin. Returns the event count. *)
let check_trace_wellformed json_str =
  let fail fmt = Alcotest.failf fmt in
  let doc =
    match Json.parse json_str with Ok v -> v | Error e -> fail "trace does not parse: %s" e
  in
  let evs =
    match Option.bind (Json.member "traceEvents" doc) Json.to_list with
    | Some l -> l
    | None -> fail "no traceEvents array"
  in
  let stacks = Hashtbl.create 8 and lasts = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      let str m = Option.bind (Json.member m ev) Json.to_str in
      let num m = Option.bind (Json.member m ev) Json.to_num in
      let ph = Option.value (str "ph") ~default:"?" in
      let name = Option.value (str "name") ~default:"?" in
      let tid =
        match num "tid" with Some f -> int_of_float f | None -> fail "event without tid"
      in
      let ts = match num "ts" with Some f -> f | None -> fail "event without ts" in
      let last = Option.value (Hashtbl.find_opt lasts tid) ~default:neg_infinity in
      if ts < last then fail "track %d: ts %f after %f" tid ts last;
      Hashtbl.replace lasts tid ts;
      let stack = Option.value (Hashtbl.find_opt stacks tid) ~default:[] in
      match ph with
      | "B" -> Hashtbl.replace stacks tid (name :: stack)
      | "E" -> (
          match stack with
          | [] -> fail "track %d: End %S with nothing open" tid name
          | top :: rest ->
              if top <> name then fail "track %d: End %S but innermost open is %S" tid name top;
              Hashtbl.replace stacks tid rest)
      | "C" -> ()
      | ph -> fail "unknown phase %S" ph)
    evs;
  List.length evs

(* Random op soup over three tracks with a jittery clock (steps can go
   backwards) and interleaved reanchors: the emitted stream must stay
   well-formed no matter the order. *)
let prop_timeline_wellformed =
  QCheck.Test.make ~count:200 ~name:"timeline: random ops emit a well-formed trace"
    QCheck.(list_of_size (QCheck.Gen.int_range 0 120) (triple (int_bound 2) (int_bound 9) (int_range (-5) 20)))
    (fun ops ->
      let tl = Timeline.create () in
      let clock = ref 100. in
      List.iter
        (fun (tid, kind, dt) ->
          clock := !clock +. (float_of_int dt *. 0.001);
          let ts = !clock in
          match kind with
          | 0 | 1 | 2 -> Timeline.span_begin tl ~tid ~name:(Printf.sprintf "s%d" kind) ~ts
          | 3 | 4 | 5 -> Timeline.span_end tl ~tid ~name:"whatever" ~ts
          | 6 | 7 -> Timeline.counter tl ~tid ~name:"c" ~ts ~value:(float_of_int dt) ()
          | 8 -> Timeline.span tl ~tid ~name:"complete" ~t0:ts ~t1:(ts +. 0.0005)
          | _ -> Timeline.reanchor tl ~ts)
        ops;
      let n = check_trace_wellformed (Timeline.to_json tl) in
      n = Timeline.events tl)

(* Same property with the events arriving through an attached Obs
   registry (the production path), including a mid-run reanchor. *)
let test_timeline_attach_reanchor () =
  let clock = ref 10. in
  let obs = Obs.create ~clock:(fun () -> !clock) () in
  let tl = Timeline.create () in
  Timeline.attach ~tid:1 tl obs;
  Obs.span_open obs "svc";
  clock := 11.;
  Obs.span_open obs "svc.step";
  clock := 500.;
  Obs.reanchor obs;
  clock := 500.5;
  Obs.span_close obs "svc.step";
  clock := 501.;
  Obs.span_close obs "svc";
  ignore (check_trace_wellformed (Timeline.to_json tl) : int);
  (* reanchor closes and reopens both spans: 2B + 2E + 2B + 2E *)
  Alcotest.(check int) "close/reopen doubles the events" 8 (Timeline.events tl);
  Alcotest.(check int) "nothing dropped" 0 (Timeline.dropped tl)

let test_timeline_cap_drops_whole_spans () =
  let tl = Timeline.create ~cap:16 () in
  for i = 0 to 39 do
    let t0 = float_of_int i in
    Timeline.span_begin tl ~tid:1 ~name:"w" ~ts:t0;
    Timeline.span_end tl ~tid:1 ~name:"w" ~ts:(t0 +. 0.5)
  done;
  ignore (check_trace_wellformed (Timeline.to_json tl) : int);
  Alcotest.(check bool) "drops counted" true (Timeline.dropped tl > 0);
  (* Whole spans drop: at depth 1 the store holds at most cap + 1
     events (a final balancing End may land past the cap). *)
  Alcotest.(check bool) "bounded store" true (Timeline.events tl <= 17);
  Alcotest.(check int) "all 80 accounted" 80 (Timeline.events tl + Timeline.dropped tl)

let test_timeline_worker_buffers () =
  let tl = Timeline.create () in
  let b = Timeline.buf () in
  Timeline.buf_add b ~name:"pass.summary" ~t0:1.0 ~t1:1.5;
  Timeline.buf_add b ~name:"pass.names" ~t0:1.5 ~t1:1.9;
  Timeline.absorb tl b;
  Timeline.counter tl ~tid:1_000_000 ~name:"heap_words" ~ts:1.2 ~value:4096. ();
  ignore (check_trace_wellformed (Timeline.to_json tl) : int);
  Alcotest.(check int) "2 spans + 1 counter" 5 (Timeline.events tl);
  Alcotest.(check int) "worker track + counter track" 2 (Timeline.tracks_count tl)

(* Byte-level golden: a fixed op sequence on explicit tids must render
   the exact Chrome trace JSON (pid normalised — it is the one
   run-dependent field). *)
let build_golden_timeline () =
  let tl = Timeline.create ~cap:64 () in
  Timeline.span_begin tl ~tid:1 ~name:"parse" ~ts:10.0;
  Timeline.span_begin tl ~tid:1 ~name:"parse/decode" ~ts:10.001;
  Timeline.counter tl ~tid:7 ~name:"heap_words" ~ts:10.0015 ~value:4096. ();
  Timeline.span_end tl ~tid:1 ~name:"parse/decode" ~ts:10.002;
  Timeline.span tl ~tid:2 ~name:"shard.0" ~t0:10.0005 ~t1:10.003;
  Timeline.counter tl ~tid:7 ~name:"heap_words" ~ts:10.004 ~value:5120. ();
  Timeline.span_end tl ~tid:1 ~name:"parse" ~ts:10.005;
  tl

let normalize_pid s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let key = "\"pid\":" in
  let k = String.length key in
  let i = ref 0 in
  while !i < n do
    if !i + k <= n && String.sub s !i k = key then begin
      Buffer.add_string b "\"pid\":0";
      i := !i + k;
      while !i < n && s.[!i] >= '0' && s.[!i] <= '9' do
        incr i
      done
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_timeline_golden () =
  let got = normalize_pid (Timeline.to_json (build_golden_timeline ())) in
  let want = read_file "golden/timeline.golden" in
  Alcotest.(check string) "chrome trace bytes" want got

(* --- resource sampler --- *)

module Sampler = Nt_obs.Sampler
module Footprint = Nt_obs.Footprint

(* Gc counters never run backwards, so under an arbitrarily jittery
   injected clock every successive delta must clamp non-negative and
   the sample clock must stay monotone (the registry clamp). *)
let prop_sampler_deltas_nonnegative =
  QCheck.Test.make ~count:100 ~name:"sampler: deltas non-negative under clock jitter"
    QCheck.(list_of_size (QCheck.Gen.int_range 1 30) (int_range (-1000) 1000))
    (fun jumps ->
      let clock = ref 100. in
      let obs = Obs.create ~clock:(fun () -> !clock) () in
      let s = Sampler.create ~interval:0.01 obs in
      let samples =
        List.map
          (fun jump ->
            clock := !clock +. (float_of_int jump /. 100.);
            ignore (Sys.opaque_identity (Array.make 64 jump));
            Sampler.sample_now s)
          jumps
      in
      List.iter2
        (fun older newer ->
          if newer.Sampler.at < older.Sampler.at then
            QCheck.Test.fail_reportf "sample clock ran backwards";
          let d = Sampler.delta ~older ~newer in
          if
            d.Sampler.d_seconds < 0. || d.Sampler.d_minor_words < 0.
            || d.Sampler.d_major_words < 0.
            || d.Sampler.d_promoted_words < 0.
            || d.Sampler.d_minor_collections < 0
            || d.Sampler.d_major_collections < 0
            || d.Sampler.d_compactions < 0
          then QCheck.Test.fail_reportf "negative delta")
        (List.filteri (fun i _ -> i < List.length samples - 1) samples)
        (List.tl samples);
      true)

let test_sampler_ring_bounded () =
  let obs = Obs.create () in
  let s = Sampler.create ~interval:0.01 ~cap:4 obs in
  for _ = 1 to 10 do
    ignore (Sampler.sample_now s : Sampler.sample)
  done;
  Alcotest.(check int) "ring holds cap" 4 (List.length (Sampler.samples s));
  Alcotest.(check int) "baseline + 10" 11 (Sampler.taken s);
  Alcotest.(check int) "evictions counted" 7 (Sampler.evicted s);
  let ats = List.map (fun (smp : Sampler.sample) -> smp.Sampler.at) (Sampler.samples s) in
  Alcotest.(check bool) "oldest first" true (List.sort compare ats = ats)

let test_sampler_publishes_gauges_and_footprints () =
  let obs = Obs.create () in
  let s = Sampler.create ~interval:0.01 obs in
  Sampler.set_footprints s (fun () -> [ ("acc.test", Footprint.v ~cards:3 ~words:42) ]);
  ignore (Sampler.sample_now s : Sampler.sample);
  let doc =
    match Json.parse (Obs.to_json (Obs.snapshot obs)) with
    | Ok v -> v
    | Error e -> Alcotest.failf "snapshot does not parse: %s" e
  in
  let num ?labels name =
    match Json.metric_number doc ?labels name with
    | Some v -> v
    | None -> Alcotest.failf "metric %s missing" name
  in
  Alcotest.(check bool) "rt.heap_words live" true (num "rt.heap_words" > 0.);
  Alcotest.(check bool) "rt.samples counts" true (num "rt.samples" >= 2.);
  Alcotest.(check (float 0.))
    "nt_state_cards published" 3.
    (num ~labels:[ ("component", "acc.test") ] "nt_state_cards");
  Alcotest.(check (float 0.))
    "nt_state_words published" 42.
    (num ~labels:[ ("component", "acc.test") ] "nt_state_words")

let test_series_json_document () =
  let obs = Obs.create () in
  let s = Sampler.create ~interval:0.01 ~cap:8 obs in
  Sampler.set_footprints s (fun () -> [ ("acc.test", Footprint.v ~cards:1 ~words:9) ]);
  let doc =
    match Json.parse (Sampler.series_json s) with
    | Ok v -> v
    | Error e -> Alcotest.failf "/series does not parse: %s" e
  in
  Alcotest.(check (option string))
    "schema tag" (Some Nt_formats.Formats.obs_series)
    (Option.bind (Json.member "schema" doc) Json.to_str);
  let samples = Option.bind (Json.member "samples" doc) Json.to_list in
  (match samples with
  | None -> Alcotest.fail "no samples array"
  | Some l ->
      Alcotest.(check bool) "never empty (baseline + refresh)" true (List.length l >= 2);
      Alcotest.(check bool) "bounded by cap" true (List.length l <= 8);
      let ats =
        List.map (fun smp -> Option.bind (Json.member "at" smp) Json.to_num) l
      in
      Alcotest.(check bool) "timestamps monotone" true (List.sort compare ats = ats));
  match Option.bind (Json.member "footprint" doc) (Json.member "acc.test") with
  | None -> Alcotest.fail "footprint map missing acc.test"
  | Some fp ->
      Alcotest.(check (option (float 0.)))
        "words embedded" (Some 9.)
        (Option.bind (Json.member "words" fp) Json.to_num)

let test_exporter_series_endpoint () =
  let obs = Obs.create () in
  let s = Sampler.create ~interval:0.01 obs in
  Sampler.set_footprints s (fun () -> [ ("acc.test", Footprint.v ~cards:2 ~words:17) ]);
  match Nt_obs.Exporter.create ~series:(fun () -> Sampler.series_json s) obs with
  | Error e -> Alcotest.fail ("exporter create failed: " ^ e)
  | Ok exp ->
      let port = Nt_obs.Exporter.port exp in
      let has hay needle =
        let n = String.length needle and m = String.length hay in
        let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
        go 0
      in
      let body = fetch_interleaved exp ~port ~path:"/series" in
      Nt_obs.Exporter.close exp;
      Alcotest.(check bool) "/series 200" true (has body "200 OK");
      Alcotest.(check bool) "schema tag served" true (has body Nt_formats.Formats.obs_series);
      Alcotest.(check bool) "footprints embedded" true (has body "\"acc.test\"")

(* The printer's number rule keeps every epoch timestamp exact: with
   a clock at 2026 epoch seconds stepping 0.2 s, each "at" in /series
   and the snapshot's "taken_at" must read back as the very clock value
   it was stamped with (a %.9g format would round them all to 10 s). *)
let test_json_epoch_timestamps_exact () =
  let readings = ref [] in
  let k = ref 0 in
  let clock () =
    let v = 1_792_242_184.0 +. (0.2 *. float_of_int !k) in
    incr k;
    readings := v :: !readings;
    v
  in
  let obs = Obs.create ~clock () in
  let s = Sampler.create ~interval:0.01 obs in
  for _ = 1 to 5 do
    ignore (Sampler.sample_now s : Sampler.sample)
  done;
  let parse what text =
    match Json.parse text with Ok v -> v | Error e -> Alcotest.failf "%s: %s" what e
  in
  let series = parse "/series" (Sampler.series_json s) in
  let snap = parse "snapshot" (Obs.to_json (Obs.snapshot obs)) in
  let ats =
    match Option.bind (Json.member "samples" series) Json.to_list with
    | Some l -> List.map (fun smp -> Option.bind (Json.member "at" smp) Json.to_num) l
    | None -> Alcotest.fail "no samples array"
  in
  let stamps = Option.bind (Json.member "taken_at" snap) Json.to_num :: ats in
  Alcotest.(check bool) "several samples" true (List.length ats >= 6);
  List.iter
    (function
      | Some v when List.mem v !readings -> ()
      | Some v -> Alcotest.failf "%.17g is no clock reading" v
      | None -> Alcotest.fail "timestamp missing")
    stamps;
  Alcotest.(check int) "distinct sample times" (List.length ats)
    (List.length (List.sort_uniq compare ats))

(* --- Pipeline integration: conservation from the exported JSON --- *)

let test_pipeline_conservation_from_json () =
  let obs = Obs.create () in
  let start = Nt_util.Trace_week.time_of ~day:Nt_util.Trace_week.Wed ~hour:9 ~minute:0 in
  let buf = Buffer.create (1 lsl 20) in
  let writer = Nt_net.Pcap.writer_to_buffer buf in
  let stats =
    Nt_core.Pipeline.campus_to_pcap ~obs
      ~config:{ Nt_workload.Email.default_config with users = 8 }
      ~monitor_loss:0.05 ~start ~stop:(start +. 600.) ~writer ()
  in
  let doc =
    match Json.parse (Obs.to_json stats.snapshot) with
    | Ok v -> v
    | Error e -> Alcotest.failf "snapshot does not parse: %s" e
  in
  let num ?labels name =
    match Json.metric_number doc ?labels name with
    | Some v -> int_of_float v
    | None -> Alcotest.failf "metric %s missing from snapshot" name
  in
  let presented = num "fault.presented" in
  let written = num "pipe.packets_written" in
  let dropped = num ~labels:[ ("kind", "dropped") ] "fault.events" in
  Alcotest.(check int) "packets_written + dropped = frames attempted" presented
    (written + dropped);
  Alcotest.(check int) "struct written = registry" stats.packets_written written;
  Alcotest.(check int) "struct dropped = registry" stats.packets_dropped dropped;
  Alcotest.(check bool) "wrote some packets" true (written > 0);
  Alcotest.(check bool) "5% monitor loss dropped some" true (dropped > 0);
  Alcotest.(check bool) "emit-pcap span present" true
    (Obs.get_span stats.snapshot "emit-pcap" <> None);
  Alcotest.(check bool) "simulate span nests under emit-pcap" true
    (Obs.get_span stats.snapshot "emit-pcap/simulate.campus" <> None)

let () =
  Alcotest.run "nt_obs"
    [
      ( "counters",
        [
          Alcotest.test_case "basics" `Quick test_counter_basics;
          Alcotest.test_case "idempotent registration" `Quick test_counter_idempotent_registration;
          Alcotest.test_case "cross-kind rejected" `Quick test_cross_kind_registration_rejected;
        ] );
      ( "labels",
        [ Alcotest.test_case "distinguish + canonicalise" `Quick test_labels_distinguish_and_canonicalise ] );
      ( "gauges-histograms",
        [
          Alcotest.test_case "gauge set/set_max" `Quick test_gauge;
          Alcotest.test_case "histogram buckets" `Quick test_histogram;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting + timing" `Quick test_span_nesting_and_timing;
          Alcotest.test_case "monotonic clamp" `Quick test_span_monotonic_clamp;
          Alcotest.test_case "reanchor after forward jump" `Quick test_reanchor_forward_jump;
          Alcotest.test_case "reanchor after backward clock" `Quick test_reanchor_backward_clock;
          Alcotest.test_case "with_span closes on raise" `Quick test_with_span_closes_on_raise;
        ] );
      ( "disabled",
        [
          Alcotest.test_case "no-op updates" `Quick test_disabled_noop;
          Alcotest.test_case "null stays disabled" `Quick test_null_registry_stays_disabled;
        ] );
      ( "export",
        [
          Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "json parser rejects garbage" `Quick test_json_parser_rejects_garbage;
          QCheck_alcotest.to_alcotest prop_json_roundtrip;
          Alcotest.test_case "json non-finite prints null" `Quick test_json_nonfinite_is_null;
          Alcotest.test_case "json nesting depth bound" `Quick test_json_depth_bound;
          Alcotest.test_case "json integer and field readers" `Quick test_json_readers;
          Alcotest.test_case "prometheus" `Quick test_prometheus_export;
          Alcotest.test_case "socket exporter" `Quick test_exporter_serves_endpoints;
        ] );
      ( "timeline",
        [
          QCheck_alcotest.to_alcotest prop_timeline_wellformed;
          Alcotest.test_case "attach + reanchor stays balanced" `Quick test_timeline_attach_reanchor;
          Alcotest.test_case "cap drops whole spans" `Quick test_timeline_cap_drops_whole_spans;
          Alcotest.test_case "worker buffers absorb" `Quick test_timeline_worker_buffers;
          Alcotest.test_case "golden chrome trace" `Quick test_timeline_golden;
        ] );
      ( "sampler",
        [
          QCheck_alcotest.to_alcotest prop_sampler_deltas_nonnegative;
          Alcotest.test_case "ring bounded" `Quick test_sampler_ring_bounded;
          Alcotest.test_case "gauges + footprints published" `Quick
            test_sampler_publishes_gauges_and_footprints;
          Alcotest.test_case "/series document" `Quick test_series_json_document;
          Alcotest.test_case "/series endpoint" `Quick test_exporter_series_endpoint;
          Alcotest.test_case "epoch timestamps exact" `Quick test_json_epoch_timestamps_exact;
        ] );
      ( "pipeline",
        [ Alcotest.test_case "conservation from exported JSON" `Quick test_pipeline_conservation_from_json ] );
    ]
