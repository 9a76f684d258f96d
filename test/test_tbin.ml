(* nttb/1 codec battery: qcheck round-trips over the full Record.t
   constructor space, frame-split robustness down to one-byte feeds, a
   seeded corruption storm with exactly-one-counter accounting, the
   byte-exact golden wire lock, and the text/pcap/tbin/streaming
   analysis differential. *)

module T = Nt_nfs.Types
module Ops = Nt_nfs.Ops
module Fh = Nt_nfs.Fh
module Ip = Nt_net.Ip_addr
module Record = Nt_trace.Record
module Tbin = Nt_tbin
module V = Nt_tbin.Varint
module Frame = Nt_tbin.Frame
module G = QCheck.Gen

(* ---------- record builders ---------- *)

let time0 = 1_048_000_000.

let mk ?(time = time0) ?reply_time ?(client = Ip.v 10 1 2 3) ?(server = Ip.v 10 9 9 9)
    ?(version = 3) ?(xid = 0xdeadbe) ?(uid = 1000) ?(gid = 100) ?result call =
  { Record.time; reply_time; client; server; version; xid; uid; gid; call; result }

let fh_bytes n seed = Fh.of_raw (String.init n (fun i -> Char.chr ((i * 131 + seed) land 0xff)))
let fh0 = Fh.of_raw ""
let fh64 = fh_bytes 64 5
let fh_a = Fh.make ~fsid:3 ~fileid:42
let fh_b = Fh.make ~fsid:3 ~fileid:43
let t1 = { T.seconds = 1_048_000_123; nanos = 999_999_999 }

let fattr1 =
  {
    T.default_fattr with
    T.ftype = T.Dir;
    mode = 0o755;
    nlink = 3;
    size = 123_456_789_012L;
    used = 4096L;
    fsid = 7L;
    fileid = 424_242L;
    atime = t1;
    mtime = { t1 with T.nanos = 0 };
    ctime = t1;
  }

let fattr_extreme =
  {
    T.ftype = T.Fifo;
    mode = max_int;
    nlink = min_int;
    uid = -1;
    gid = max_int;
    size = Int64.max_int;
    used = Int64.min_int;
    fsid = -1L;
    fileid = 0L;
    atime = { T.seconds = min_int; nanos = max_int };
    mtime = { T.seconds = 0; nanos = 0 };
    ctime = { T.seconds = -1; nanos = -1 };
  }

let sattr_full =
  {
    T.set_mode = Some 0o600;
    set_uid = Some 0;
    set_gid = Some (-1);
    set_size = Some Int64.max_int;
    set_atime = Some t1;
    set_mtime = Some { T.seconds = 1; nanos = 2 };
  }

let huge_name = String.make 5000 'n'

(* One record per call constructor, one per success constructor, plus
   the value extremes (empty and 64-byte handles, empty and huge names,
   int/int64 boundaries, missing replies, error replies, v2 records).
   This list is the golden fixture input, so it must stay deterministic
   — extend it only together with the goldens. *)
let menagerie () =
  let entries n =
    List.init n (fun i ->
        {
          Ops.entry_fileid = Int64.of_int (i * 7);
          entry_name = Printf.sprintf "e%04d" i;
          entry_cookie = Int64.of_int (i + 1);
        })
  in
  [
    mk Ops.Null ~result:(Ok Ops.R_null) ~reply_time:(time0 +. 0.001);
    mk (Ops.Getattr fh_a) ~result:(Ok (Ops.R_attr fattr1));
    mk (Ops.Setattr { fh = fh_a; attrs = sattr_full }) ~result:(Ok (Ops.R_attr fattr_extreme));
    mk (Ops.Setattr { fh = fh0; attrs = T.empty_sattr });
    mk
      (Ops.Lookup { dir = fh_a; name = "mbox" })
      ~result:(Ok (Ops.R_lookup { fh = fh_b; obj = Some fattr1; dir = None }));
    mk (Ops.Lookup { dir = fh64; name = "" }) ~result:(Error T.Err_noent);
    mk (Ops.Lookup { dir = fh_a; name = huge_name }) ~result:(Error (T.Err_unknown 31337));
    mk (Ops.Access { fh = fh_a; access = 0x3f }) ~result:(Ok (Ops.R_access 0x1f));
    mk (Ops.Readlink fh_b) ~result:(Ok (Ops.R_readlink "../target/elsewhere"));
    mk
      (Ops.Read { fh = fh_a; offset = 0L; count = 8192 })
      ~result:(Ok (Ops.R_read { attr = Some fattr1; count = 8192; eof = false }));
    mk
      (Ops.Read { fh = fh_a; offset = Int64.max_int; count = max_int })
      ~result:(Ok (Ops.R_read { attr = None; count = 0; eof = true }));
    mk
      (Ops.Write { fh = fh_a; offset = 65536L; count = 4096; stable = T.Unstable })
      ~result:(Ok (Ops.R_write { count = 4096; committed = T.File_sync; attr = Some fattr1 }));
    mk (Ops.Write { fh = fh_b; offset = -1L; count = 0; stable = T.Data_sync }) ~version:2;
    mk
      (Ops.Create { dir = fh_a; name = "#comp1#"; mode = 0o644; exclusive = true })
      ~result:(Ok (Ops.R_create { fh = Some fh_b; attr = Some fattr1 }));
    mk
      (Ops.Create { dir = fh_a; name = "x"; mode = 0; exclusive = false })
      ~result:(Ok (Ops.R_create { fh = None; attr = None }));
    mk
      (Ops.Mkdir { dir = fh_a; name = "dir"; mode = 0o700 })
      ~result:(Ok (Ops.R_create { fh = Some fh_a; attr = None }));
    mk (Ops.Symlink { dir = fh_a; name = "ln"; target = "/very/long/target" })
      ~result:(Ok Ops.R_empty);
    mk (Ops.Mknod { dir = fh_a; name = "dev" }) ~result:(Error T.Err_notsupp);
    mk (Ops.Remove { dir = fh_a; name = "user1.lock" }) ~result:(Ok Ops.R_empty);
    mk (Ops.Rmdir { dir = fh_a; name = "dir" }) ~result:(Error T.Err_notempty);
    mk (Ops.Rename { from_dir = fh_a; from_name = "a"; to_dir = fh_b; to_name = "b" })
      ~result:(Ok Ops.R_empty);
    mk (Ops.Link { fh = fh_b; to_dir = fh_a; to_name = "hard" }) ~result:(Ok Ops.R_empty);
    mk
      (Ops.Readdir { dir = fh_a; cookie = 0L; count = 4096 })
      ~result:(Ok (Ops.R_readdir { entries = entries 3; eof = true }));
    mk
      (Ops.Readdirplus { dir = fh_a; cookie = Int64.min_int; count = 8192 })
      ~result:(Ok (Ops.R_readdir { entries = entries 1000; eof = false }));
    mk (Ops.Statfs fh_a)
      ~result:(Ok (Ops.R_statfs { total_bytes = Int64.max_int; free_bytes = 0L }));
    mk (Ops.Fsinfo fh_a) ~result:(Ok (Ops.R_fsinfo { rtmax = 32768; wtmax = 32768 }));
    mk (Ops.Pathconf fh_a) ~result:(Ok (Ops.R_pathconf { name_max = 255 }));
    mk (Ops.Commit { fh = fh_a; offset = 0L; count = 0 }) ~result:(Ok Ops.R_empty);
    mk Ops.Null ~time:0. ~xid:min_int ~uid:(-1) ~gid:max_int ~version:2;
    mk (Ops.Getattr fh0) ~time:(-1.5) ~reply_time:infinity
      ~result:(Ok (Ops.R_attr T.default_fattr));
  ]

(* Deterministic plain records for the corruption battery: varied
   enough to exercise atoms and deltas, small enough that a damaged
   frame costs exactly one [frame_records] slice of them. *)
let simple i =
  let fh = Fh.make ~fsid:(i land 3) ~fileid:(1000 + (i land 31)) in
  mk
    ~time:(time0 +. (0.01 *. float_of_int i))
    ~reply_time:(time0 +. 0.005 +. (0.01 *. float_of_int i))
    ~xid:(i * 7919) ~uid:(i land 15) ~gid:2
    (Ops.Read { fh; offset = Int64.of_int (i * 8192); count = 8192 })
    ~result:(Ok (Ops.R_read { attr = None; count = 8192; eof = false }))

(* ---------- decode helpers ---------- *)

let drain d =
  let out = ref [] in
  let rec go () =
    match Tbin.Decoder.pull d with
    | Some r ->
        out := r :: !out;
        go ()
    | None -> ()
  in
  go ();
  List.rev !out

(* The whole stream in one feed. *)
let decode_string s =
  let d = Tbin.Decoder.create () in
  Tbin.Decoder.feed d s;
  Tbin.Decoder.finish d;
  let records = drain d in
  (Tbin.Decoder.stats d, records)

let decode_chunked chunk s =
  let d = Tbin.Decoder.create () in
  let n = String.length s in
  let pos = ref 0 in
  let out = ref [] in
  while !pos < n do
    let len = min chunk (n - !pos) in
    Tbin.Decoder.feed d (String.sub s !pos len);
    pos := !pos + len;
    out := !out @ drain d
  done;
  Tbin.Decoder.finish d;
  out := !out @ drain d;
  (Tbin.Decoder.stats d, !out)

let rec drop k l = if k = 0 then l else match l with [] -> [] | _ :: tl -> drop (k - 1) tl

let with_temp suffix f =
  let path = Filename.temp_file "nt_tbin_test" suffix in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

(* The whole stream through a channel: reads land in the decoder's
   window and records arrive by callback, with no queue. *)
let decode_channel s =
  with_temp ".ntb" (fun path ->
      Out_channel.with_open_bin path (fun oc -> output_string oc s);
      let out = ref [] in
      let st =
        In_channel.with_open_bin path (fun ic -> Tbin.iter_channel ic (fun r -> out := r :: !out))
      in
      (st, List.rev !out))

(* Frame starts of a well-formed stream, by walking the headers. *)
let frame_starts s =
  let le32 p = Int32.to_int (String.get_int32_le s p) land 0xFFFF_FFFF in
  let rec go p acc =
    if p + 17 > String.length s then List.rev acc else go (p + 17 + le32 (p + 9)) (p :: acc)
  in
  go (String.length Tbin.magic) []

(* Decode the file at [path] as the ranges [cuts] bound, each through
   its own channel, and apply the stitch rule: when a range did not
   halt where the next one started, read the file again as one range.
   Returns the summed stats, the records in order and whether the
   ranges stitched. *)
let decode_split path cuts =
  let k = Array.length cuts + 1 in
  In_channel.with_open_bin path @@ fun ic ->
  let read ~lo ~hi =
    let out = ref [] in
    In_channel.seek ic 0L;
    let r = Tbin.iter_range ic ~lo ~hi (fun x -> out := x :: !out) in
    (r, List.rev !out)
  in
  let parts =
    Array.init k (fun i ->
        read
          ~lo:(if i = 0 then 0 else cuts.(i - 1))
          ~hi:(if i = k - 1 then max_int else cuts.(i)))
  in
  let stitched = ref true in
  for i = 0 to k - 2 do
    if (fst parts.(i)).Tbin.stop <> (fst parts.(i + 1)).Tbin.first then stitched := false
  done;
  if !stitched then
    ( Array.fold_left (fun st (r, _) -> Tbin.sum st r.Tbin.stats) (fst parts.(0)).Tbin.stats
        (Array.sub parts 1 (k - 1)),
      List.concat_map snd (Array.to_list parts),
      true )
  else
    let r, out = read ~lo:0 ~hi:max_int in
    (r.Tbin.stats, out, false)

(* Copy [s.[pos, pos+len)] into the decoder's window, as the monitor's
   tail reads a file into it, and decode it: records reach [out] with
   their replay offsets. *)
let push_window d out s pos len =
  let w = Tbin.Decoder.window d in
  Nt_net.Window.make_room w len;
  Bytes.blit_string s pos w.Nt_net.Window.buf w.Nt_net.Window.tail len;
  w.Nt_net.Window.tail <- w.Nt_net.Window.tail + len;
  Tbin.Decoder.parse d (fun r off -> out := (r, Int64.of_int off) :: !out)

(* Records with their replay offsets, fed [chunk] bytes at a time. *)
let decode_offsets chunk s =
  let d = Tbin.Decoder.create () in
  let out = ref [] in
  let n = String.length s in
  let pos = ref 0 in
  while !pos < n do
    let len = min chunk (n - !pos) in
    push_window d out s !pos len;
    pos := !pos + len
  done;
  Tbin.Decoder.finish d;
  (Tbin.Decoder.stats d, List.rev !out)

let check_roundtrip ?frame_records msg rs =
  let st, out = decode_string (Tbin.encode_string ?frame_records rs) in
  Alcotest.(check int) (msg ^ ": no failures") 0 (Tbin.failures st);
  Alcotest.(check int) (msg ^ ": record count") (List.length rs) (List.length out);
  if out <> rs then Alcotest.failf "%s: records changed across encode/decode" msg

(* ---------- varint ---------- *)

let test_varint_bounds () =
  let rt_uv v =
    let b = Buffer.create 16 in
    V.write_uv b v;
    let c = V.cursor (Buffer.contents b) in
    Alcotest.(check int) (Printf.sprintf "uv %d" v) v (V.read_uv c);
    Alcotest.(check int) "uv consumed all" (Buffer.length b) c.V.pos
  in
  let rt_zz v =
    let b = Buffer.create 16 in
    V.write_zz b v;
    Alcotest.(check int) (Printf.sprintf "zz %d" v) v (V.read_zz (V.cursor (Buffer.contents b)))
  in
  let rt_uv64 v =
    let b = Buffer.create 16 in
    V.write_uv64 b v;
    Alcotest.(check int64) (Printf.sprintf "uv64 %Ld" v) v
      (V.read_uv64 (V.cursor (Buffer.contents b)))
  in
  List.iter rt_uv [ 0; 1; 127; 128; 129; 16383; 16384; 0x7FFFFFFF; max_int; min_int; -1 ];
  List.iter rt_zz [ 0; 1; -1; 63; -64; 64; -65; 8191; -8192; max_int; min_int ];
  List.iter rt_uv64
    [ 0L; 1L; 127L; 128L; 16383L; 16384L; 0xFFFFFFFFL; Int64.max_int; Int64.min_int; -1L ]

let test_varint_corrupt () =
  Alcotest.check_raises "truncated uv" V.Corrupt (fun () ->
      ignore (V.read_uv (V.cursor "\x80")));
  Alcotest.check_raises "overlong uv" V.Corrupt (fun () ->
      ignore (V.read_uv (V.cursor "\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01")));
  Alcotest.check_raises "overlong uv64" V.Corrupt (fun () ->
      ignore (V.read_uv64 (V.cursor "\x80\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01")));
  Alcotest.check_raises "empty u8" V.Corrupt (fun () -> ignore (V.u8 (V.cursor "")))

(* ---------- frame services ---------- *)

let test_adler32 () =
  (* RFC 1950 reference value *)
  Alcotest.(check int) "adler32(Wikipedia)" 0x11E60398
    (Frame.adler32 "Wikipedia" ~pos:0 ~len:9);
  Alcotest.(check int) "adler32 empty" 1 (Frame.adler32 "" ~pos:0 ~len:0)

(* RFC 1950 one byte at a time, reduced after every byte: the oracle for
   Frame.adler32's batched eight-bytes-per-step loop. *)
let adler32_bytewise s ~pos ~len =
  let a = ref 1 and b = ref 0 in
  for j = pos to pos + len - 1 do
    a := (!a + Char.code s.[j]) mod 65521;
    b := (!b + !a) mod 65521
  done;
  (!b lsl 16) lor !a

let prop_adler32_bytewise =
  let gen =
    G.(
      string_size ~gen:char (0 -- 12_000) >>= fun s ->
      let n = String.length s in
      0 -- n >>= fun pos -> map (fun len -> (s, pos, len)) (0 -- (n - pos)))
  in
  QCheck.Test.make ~name:"adler32 matches a bytewise reference on slices" ~count:3000
    (QCheck.make
       ~print:(fun (s, pos, len) ->
         Printf.sprintf "|s|=%d pos=%d len=%d" (String.length s) pos len)
       gen)
    (fun (s, pos, len) -> Frame.adler32 s ~pos ~len = adler32_bytewise s ~pos ~len)

(* 0xFF maximises both sums: runs at the step, batch and double-batch
   edges, whole and at an odd offset, must not overflow a batch. *)
let test_adler32_ff_runs () =
  List.iter
    (fun n ->
      let s = String.make n '\xff' in
      Alcotest.(check int) (Printf.sprintf "0xFF x %d" n) (adler32_bytewise s ~pos:0 ~len:n)
        (Frame.adler32 s ~pos:0 ~len:n);
      let t = "abc" ^ s in
      Alcotest.(check int)
        (Printf.sprintf "0xFF x %d at offset 3" n)
        (adler32_bytewise t ~pos:3 ~len:n)
        (Frame.adler32 t ~pos:3 ~len:n))
    [ 0; 1; 7; 8; 9; 5551; 5552; 5553; 11104; 11105; 199_999 ]

let rle_roundtrip s =
  let c = Frame.compress s in
  Frame.decompress c ~pos:0 ~len:(String.length c) ~expect:(String.length s) = s

let prop_rle_roundtrip =
  QCheck.Test.make ~name:"frame RLE round-trips arbitrary bytes" ~count:500
    QCheck.(string_of_size G.(0 -- 500))
    rle_roundtrip

let prop_rle_roundtrip_runs =
  QCheck.Test.make ~name:"frame RLE round-trips run-heavy bytes" ~count:300
    (QCheck.make (fun st ->
         let l = G.generate1 ~rand:st (G.list_size (G.int_range 0 20) (G.pair (G.int_range 0 300) G.char)) in
         String.concat "" (List.map (fun (n, c) -> String.make n c) l)))
    rle_roundtrip

(* The decoder decompresses every frame into one scratch buffer: a
   large compressed frame, then smaller and larger ones, must each
   decode to exactly their own records, with none of a longer frame's
   bytes showing through a shorter one. *)
let test_compressed_frames_share_scratch () =
  let sizes = [ 200; 3; 60; 1; 400 ] in
  let buf = Buffer.create 4096 in
  let w = Tbin.Writer.create ~frame_records:max_int (Buffer.add_string buf) in
  let rs =
    List.concat
      (List.mapi
         (fun f n ->
           let rs = List.init n (fun i -> simple ((1000 * f) + i)) in
           List.iter (Tbin.Writer.add w) rs;
           Tbin.Writer.flush w;
           rs)
         sizes)
  in
  let s = Buffer.contents buf in
  let compressed = List.filter (fun p -> Char.code s.[p + 4] land 1 = 1) (frame_starts s) in
  Alcotest.(check int) "every frame is compressed" (List.length sizes) (List.length compressed);
  let st, out = decode_string s in
  Alcotest.(check int) "no failures" 0 (Tbin.failures st);
  Alcotest.(check bool) "records decode" true (compare out rs = 0)

let test_rle_rejects () =
  let c = Frame.compress (String.make 40 'a') in
  Alcotest.check_raises "wrong expected length" V.Corrupt (fun () ->
      ignore (Frame.decompress c ~pos:0 ~len:(String.length c) ~expect:41));
  Alcotest.check_raises "truncated control stream" V.Corrupt (fun () ->
      ignore (Frame.decompress "\x05ab" ~pos:0 ~len:3 ~expect:6))

(* ---------- qcheck record generators (shared with test_trace) ---------- *)

open Record_gen

(* ---------- the text writer ---------- *)

(* Appending into one reused buffer renders each record exactly as
   [to_line] does, and the fixed columns match their printf renderings
   over the generators' extremes (min_int, negative xids, infinities). *)
let prop_add_line =
  QCheck.Test.make ~name:"add_line into a reused buffer equals to_line" ~count:500 arb_records
    (fun rs ->
      let b = Buffer.create 16 in
      Buffer.add_string b "prefix|";
      List.iter
        (fun r ->
          Record.add_line b r;
          Buffer.add_char b '\n')
        rs;
      let fixed (r : Record.t) =
        Printf.sprintf "%.6f %s v%d %s %s %08x %d %d %s" r.time
          (match r.reply_time with Some t -> Printf.sprintf "%.6f" t | None -> "-")
          r.version (Nt_net.Ip_addr.to_string r.client) (Nt_net.Ip_addr.to_string r.server) r.xid
          r.uid r.gid
          (Nt_nfs.Proc.to_string (Record.proc r))
      in
      String.equal (Buffer.contents b)
        (String.concat "" ("prefix|" :: List.map (fun r -> Record.to_line r ^ "\n") rs))
      && List.for_all
           (fun r -> String.starts_with ~prefix:(fixed r ^ " ") (Record.to_line r ^ " "))
           rs)

(* The numeric field writers against the renderings they replace: one
   message per mismatch. *)
let writer_mismatches xs xids =
  let b = Buffer.create 64 in
  let render add x =
    Buffer.clear b;
    add b x;
    Buffer.contents b
  in
  List.concat_map
    (fun x ->
      List.filter_map
        (fun (name, add, expect) ->
          let got = render add x in
          if String.equal got expect then None
          else Some (Printf.sprintf "%s %h: %s, want %s" name x got expect))
        [
          ("%.6f", Record.add_fixed6, Printf.sprintf "%.6f" x);
          ("string_of_float", Record.add_float, string_of_float x);
        ])
    xs
  @ List.filter_map
      (fun xid ->
        let got = render Record.add_xid xid and expect = Printf.sprintf "%08x" xid in
        if String.equal got expect then None
        else Some (Printf.sprintf "%%08x %d: %s, want %s" xid got expect))
      xids

(* Where a fast path could go wrong: exact and near ties, carries,
   every digit-count boundary of the string_of_float path, and the
   values only the C formatters handle. *)
let adversarial_doubles =
  let around x = [ x; Float.pred x; Float.succ x ] in
  let ints a b = List.init (b - a + 1) (fun i -> a + i) in
  let dyadic = List.map (fun k -> float_of_int k /. 128.) (ints 0 256) in
  let half_micros = List.map (fun k -> float_of_int ((2 * k) + 1) /. 2e6) (ints 0 2000) in
  let carries =
    List.concat_map
      (fun s -> [ s +. 0.9999995; s +. 0.99999949; s +. 0.9999999 ])
      [ 0.; 1.; 9.; 99_999.; 1_003_914_003.; 8_999_999_999_999. ]
    @ [ 99_999.99999995; 99_999.9999999; 9_999_999_999.95; 99_999_999_999.95 ]
  in
  (* For each power 10^e: the power, and the half-unit in the last of
     the 12 significant digits just below it. *)
  let boundaries =
    List.concat_map
      (fun e ->
        let p = 10. ** float_of_int e in
        around p @ around (p -. (0.5 *. (10. ** float_of_int (e - 12)))))
      (ints 4 12)
  in
  let specials =
    [ 0.; -0.; nan; infinity; neg_infinity; 9e15; Float.pred 9e15; 1e16; 1e300;
      4.9e-324; 2.2250738585072014e-308; Float.min_float; -1.5; -1e9; -0.0000005;
      -1_003_914_003.7765 ]
  in
  List.concat_map
    (fun x -> [ x; 1_003_914_003. +. x; 12_345. +. x ])
    (dyadic @ half_micros)
  @ carries @ boundaries @ specials

let test_writer_oracle () =
  let xids = [ 0; 1; -1; min_int; max_int; 0xFFFF_FFFF; 0x1_0000_0000; 0xdead_beef; 0x31c0_abb8 ] in
  match writer_mismatches adversarial_doubles xids with
  | [] -> ()
  | ms -> Alcotest.failf "%d mismatches, first: %s" (List.length ms) (List.hd ms)

let prop_writer_doubles =
  let gen =
    G.oneof
      [
        G.map Int64.float_of_bits G.int64;
        G.map2
          (fun s ns -> float_of_int s +. (float_of_int ns *. 1e-9))
          (G.int_range 0 4_000_000_000) (G.int_range 0 999_999_999);
        G.map2
          (fun s x -> float_of_int s +. x)
          (G.int_range 0 100_000_000_000) (G.float_bound_exclusive 1.);
      ]
  in
  QCheck.Test.make ~name:"field writers match printf over 100k doubles" ~count:100_000
    (QCheck.make ~print:(Printf.sprintf "%h") gen)
    (fun x -> writer_mismatches [ x ] [] = [])

(* ---------- round trips ---------- *)

let prop_roundtrip_one =
  QCheck.Test.make ~name:"decode (encode r) = r over the full record space" ~count:1000
    arb_record (fun r ->
      let st, out = decode_string (Tbin.encode_string [ r ]) in
      Tbin.failures st = 0 && out = [ r ])

let prop_roundtrip_list =
  QCheck.Test.make ~name:"record lists round-trip at every frame size" ~count:200
    QCheck.(pair arb_records (int_range 1 5))
    (fun (rs, frame_records) ->
      let st, out = decode_string (Tbin.encode_string ~frame_records rs) in
      Tbin.failures st = 0 && out = rs)

let prop_one_byte_feed =
  QCheck.Test.make ~name:"one-byte feeding decodes identically" ~count:40 arb_records
    (fun rs ->
      let s = Tbin.encode_string ~frame_records:3 rs in
      QCheck.assume (String.length s < 4096);
      let d = Tbin.Decoder.create () in
      String.iter (fun ch -> Tbin.Decoder.feed d (String.make 1 ch)) s;
      Tbin.Decoder.finish d;
      let out = drain d in
      Tbin.failures (Tbin.Decoder.stats d) = 0 && out = rs)

let test_menagerie_roundtrip () =
  let rs = menagerie () in
  check_roundtrip "menagerie" rs;
  check_roundtrip ~frame_records:1 "menagerie, one record per frame" rs;
  check_roundtrip ~frame_records:7 "menagerie, frame splits inside records" rs

let test_split_at_every_offset () =
  (* A small diverse stream, cut into two feeds at every byte offset:
     framing must never depend on chunk boundaries. *)
  let rs = List.init 12 simple in
  let s = Tbin.encode_string ~frame_records:5 rs in
  for i = 0 to String.length s do
    let d = Tbin.Decoder.create () in
    Tbin.Decoder.feed d (String.sub s 0 i);
    Tbin.Decoder.feed d (String.sub s i (String.length s - i));
    Tbin.Decoder.finish d;
    let out = drain d in
    if Tbin.failures (Tbin.Decoder.stats d) <> 0 then
      Alcotest.failf "split at %d: decode failures" i;
    if out <> rs then Alcotest.failf "split at %d: records differ" i
  done

(* ---------- decoder mechanics ---------- *)

let test_empty_and_magic_only () =
  let st, out = decode_string "" in
  Alcotest.(check int) "empty: no failures" 0 (Tbin.failures st);
  Alcotest.(check int) "empty: no records" 0 (List.length out);
  let st, out = decode_string Tbin.magic in
  Alcotest.(check int) "magic only: no failures" 0 (Tbin.failures st);
  Alcotest.(check int) "magic only: no records" 0 (List.length out);
  let st, out = decode_string (Tbin.encode_string []) in
  Alcotest.(check int) "empty stream: no failures" 0 (Tbin.failures st);
  Alcotest.(check int) "empty stream: no records" 0 (List.length out)

let test_garbage_is_missing_header () =
  let st, out = decode_string "hello, this is not a tbin stream at all" in
  Alcotest.(check int) "one failure" 1 (Tbin.failures st);
  Alcotest.(check int) "counted as missing header" 1 st.Tbin.missing_header;
  Alcotest.(check int) "no records" 0 (List.length out)

let test_chunked_equals_whole () =
  let rs = menagerie () in
  let s = Tbin.encode_string ~frame_records:4 rs in
  let st_whole, out_whole = decode_string s in
  List.iter
    (fun chunk ->
      let st_c, out_c = decode_chunked chunk s in
      if st_c <> st_whole then Alcotest.failf "chunk %d: stats differ" chunk;
      if out_c <> out_whole then Alcotest.failf "chunk %d: records differ" chunk)
    [ 1; 2; 3; 7; 64; 4096; 65536 ]

(* A lookup whose name and handles are unique and incompressible, so a
   few thousand of them make a frame several 64 KiB reads long. *)
let big_record i =
  let rng = Random.State.make [| 0xb16; i |] in
  let name =
    String.init (100 + Random.State.int rng 200) (fun _ -> Char.chr (97 + Random.State.int rng 26))
  in
  mk ~time:(time0 +. float_of_int i) ~xid:i
    (Ops.Lookup { dir = fh_bytes 32 i; name })
    ~result:(Ok (Ops.R_lookup { fh = fh_bytes 32 (i + 1); obj = Some fattr1; dir = None }))

(* Frames of 1, 2, 4, ... 2048 records: the decoder's window has to
   slide under the small ones and grow for the large ones. *)
let growing_stream () =
  let b = Buffer.create (1 lsl 20) in
  let w = Tbin.Writer.create ~frame_records:max_int (Buffer.add_string b) in
  let rs = ref [] and i = ref 0 in
  for k = 0 to 11 do
    for _ = 1 to 1 lsl k do
      let r = big_record !i in
      incr i;
      rs := r :: !rs;
      Tbin.Writer.add w r
    done;
    Tbin.Writer.flush w
  done;
  Tbin.Writer.close w;
  (List.rev !rs, Buffer.contents b)

let flip_bytes s offsets =
  let b = Bytes.of_string s in
  List.iter (fun o -> Bytes.set b o (Char.chr (Char.code (Bytes.get b o) lxor 0xff))) offsets;
  Bytes.to_string b

let test_paths_agree () =
  let _, grow = growing_stream () in
  let rng = Random.State.make [| 0xa9; 3 |] in
  let garbage = String.init 301 (fun _ -> Char.chr (Random.State.int rng 256)) in
  let menagerie_s = Tbin.encode_string ~frame_records:4 (menagerie ()) in
  List.iter
    (fun (label, s) ->
      let st_w, out_w = decode_string s in
      let st_c, out_c = decode_channel s in
      let st_1, pairs_1 = decode_offsets 1 s in
      let st_a, pairs_a = decode_offsets (String.length s + 1) s in
      if st_c <> st_w then
        Alcotest.failf "%s: channel stats %s, whole %s" label (Tbin.stats_to_string st_c)
          (Tbin.stats_to_string st_w);
      if st_1 <> st_w || st_a <> st_w then Alcotest.failf "%s: feeder stats differ" label;
      if out_c <> out_w then Alcotest.failf "%s: channel records differ" label;
      if List.map fst pairs_1 <> out_w then Alcotest.failf "%s: 1-byte records differ" label;
      if pairs_1 <> pairs_a then Alcotest.failf "%s: 1-byte offsets differ" label)
    [
      ("menagerie", menagerie_s);
      ("growing frames", grow);
      ( "growing frames, three flips",
        flip_bytes grow [ 40; String.length grow / 2; String.length grow - 9 ] );
      ("garbage between streams", menagerie_s ^ garbage ^ grow);
      ("truncated mid-frame", String.sub grow 0 (String.length grow - 1000));
    ]

let test_window_growth () =
  let rs, s = growing_stream () in
  let last_frame = Tbin.encode_string (List.filteri (fun i _ -> i >= 2047) rs) in
  if String.length last_frame <= 2 * 65536 then
    Alcotest.failf "last frame is %d bytes, not larger than two reads" (String.length last_frame);
  let st, out = decode_channel s in
  Alcotest.(check int) "channel: twelve frames" 12 st.Tbin.frames;
  Alcotest.(check int) "channel: no failures" 0 (Tbin.failures st);
  if out <> rs then Alcotest.failf "channel decode changed the records";
  (* Records pulled early must survive the slides and growth that later
     feeds cause: they never alias the window. *)
  let d = Tbin.Decoder.create () in
  let half = String.length s / 2 in
  Tbin.Decoder.feed d (String.sub s 0 half);
  let early = drain d in
  let early_lines = List.map Record.to_line early in
  let pos = ref half in
  while !pos < String.length s do
    let len = min 3000 (String.length s - !pos) in
    Tbin.Decoder.feed d (String.sub s !pos len);
    pos := !pos + len
  done;
  Tbin.Decoder.finish d;
  let late = drain d in
  Alcotest.(check bool) "early records were delivered" true (List.length early > 0);
  Alcotest.(check (list string)) "early records unchanged" early_lines
    (List.map Record.to_line early);
  if early @ late <> rs then Alcotest.failf "fed decode changed the records";
  let fp = Tbin.Decoder.footprint d in
  if fp.Nt_obs.Footprint.words * 8 < String.length last_frame then
    Alcotest.failf "window of %d words cannot have held the last frame" fp.Nt_obs.Footprint.words

let test_offsets_and_reset () =
  let rs = List.init 100 simple in
  let s = Tbin.encode_string ~frame_records:10 rs in
  let d = Tbin.Decoder.create () in
  let pairs = ref [] in
  push_window d pairs s 0 (String.length s);
  Tbin.Decoder.finish d;
  let pairs = List.rev !pairs in
  Alcotest.(check int) "all records delivered" 100 (List.length pairs);
  Alcotest.(check int) "consumed the whole stream" (String.length s)
    (Tbin.Decoder.window d).Nt_net.Window.pos;
  let offs = List.map snd pairs in
  List.iteri
    (fun i off ->
      if Int64.compare off 0L < 0 || Int64.compare off (Int64.of_int (String.length s)) > 0
      then Alcotest.failf "offset %Ld out of range at %d" off i)
    offs;
  ignore
    (List.fold_left
       (fun prev off ->
         if Int64.compare off prev < 0 then Alcotest.failf "offsets not monotone";
         off)
       0L offs);
  (* Resume from the offset reported mid-stream: at-least-once at frame
     granularity, so the replayed records are a frame-aligned suffix
     that contains everything from the resume point on. *)
  let off55 = List.nth offs 55 in
  let d2 = Tbin.Decoder.create () in
  Tbin.Decoder.reset_at d2 off55;
  let at = Int64.to_int off55 in
  Tbin.Decoder.feed d2 (String.sub s at (String.length s - at));
  Tbin.Decoder.finish d2;
  let replay = drain d2 in
  Alcotest.(check int) "replay decodes clean" 0 (Tbin.failures (Tbin.Decoder.stats d2));
  let k = 100 - List.length replay in
  if k > 55 then Alcotest.failf "replay from offset of record 55 starts at %d" k;
  if replay <> drop k rs then Alcotest.failf "replay is not a suffix of the stream"

let test_writer_flush_appendable () =
  let b = Buffer.create 256 in
  let w = Tbin.Writer.create ~frame_records:100 (Buffer.add_string b) in
  let rs = List.init 10 simple in
  List.iteri (fun i r -> if i = 5 then Tbin.Writer.flush w; Tbin.Writer.add w r) rs;
  Alcotest.(check int) "written counts records" 10 (Tbin.Writer.written w);
  Tbin.Writer.close w;
  let st, out = decode_string (Buffer.contents b) in
  Alcotest.(check int) "no failures" 0 (Tbin.failures st);
  Alcotest.(check int) "two frames" 2 st.Tbin.frames;
  if out <> rs then Alcotest.failf "flush changed the record stream"

let test_obs_mirror () =
  let obs = Nt_obs.Obs.create () in
  let d = Tbin.Decoder.create ~obs () in
  let rs = List.init 64 simple in
  let s = Tbin.encode_string ~frame_records:32 rs in
  (* damage the second frame: flip a byte comfortably past the header *)
  let m = Bytes.of_string s in
  let mid = String.length s - 40 in
  Bytes.set m mid (Char.chr (Char.code (Bytes.get m mid) lxor 0xff));
  Tbin.Decoder.feed d (Bytes.to_string m);
  Tbin.Decoder.finish d;
  ignore (drain d);
  let st = Tbin.Decoder.stats d in
  let v name = Nt_obs.Obs.value (Nt_obs.Obs.counter obs name) in
  Alcotest.(check int) "frames mirrored" st.Tbin.frames (v "tbin.frames");
  Alcotest.(check int) "records mirrored" st.Tbin.records (v "tbin.records");
  Alcotest.(check int) "skipped bytes mirrored" st.Tbin.skipped_bytes (v "tbin.skipped_bytes");
  Alcotest.(check int) "one failure" 1 (Tbin.failures st);
  ignore (Tbin.Decoder.footprint d : Nt_obs.Footprint.t)

(* ---------- corruption ---------- *)

let test_single_bit_flips () =
  let rs = List.init 320 simple in
  let s = Tbin.encode_string ~frame_records:32 rs in
  let rng = Random.State.make [| 0x7b17; 1 |] in
  for _ = 1 to 300 do
    let pos = Random.State.int rng (String.length s) in
    let bit = Random.State.int rng 8 in
    let m = Bytes.of_string s in
    Bytes.set m pos (Char.chr (Char.code (Bytes.get m pos) lxor (1 lsl bit)));
    let st, out = decode_string (Bytes.to_string m) in
    let f = Tbin.failures st in
    if f <> 1 then
      Alcotest.failf "flip at %d bit %d: %d failures, want exactly 1 (%s)" pos bit f
        (Tbin.stats_to_string st);
    if List.length out < 320 - 32 then
      Alcotest.failf "flip at %d bit %d: lost more than one frame (%d records)" pos bit
        (List.length out)
  done

let test_truncations () =
  let rs = List.init 320 simple in
  let s = Tbin.encode_string ~frame_records:32 rs in
  let len = String.length s in
  let k = ref 0 in
  while !k <= len do
    let st, out = decode_string (String.sub s 0 !k) in
    if Tbin.failures st > 1 then
      Alcotest.failf "truncation at %d: %d failures (%s)" !k (Tbin.failures st)
        (Tbin.stats_to_string st);
    if List.length out mod 32 <> 0 then
      Alcotest.failf "truncation at %d: %d records, not whole frames" !k (List.length out);
    k := !k + 7
  done;
  let st, out = decode_string s in
  Alcotest.(check int) "untruncated: clean" 0 (Tbin.failures st);
  Alcotest.(check int) "untruncated: all records" 320 (List.length out);
  let st, _ = decode_string (String.sub s 0 (len - 3)) in
  Alcotest.(check int) "mid-frame cut is a truncated tail" 1 st.Tbin.truncated_tails

let test_concat_resync () =
  let rs = List.init 320 simple in
  let s = Tbin.encode_string ~frame_records:32 rs in
  let rng = Random.State.make [| 0xc0; 2 |] in
  let garbage = String.init 137 (fun _ -> Char.chr (Random.State.int rng 256)) in
  let st, out = decode_string (s ^ garbage ^ s) in
  Alcotest.(check int) "both streams recovered" 640 (List.length out);
  Alcotest.(check int) "one desync episode" 1 (Tbin.failures st);
  Alcotest.(check int) "counted as lost sync" 1 st.Tbin.lost_sync;
  if st.Tbin.skipped_bytes < String.length garbage then
    Alcotest.failf "skipped %d bytes, garbage was %d" st.Tbin.skipped_bytes
      (String.length garbage)

let test_mutation_storm () =
  let rs = List.init 320 simple in
  let s = Tbin.encode_string ~frame_records:32 rs in
  let len = String.length s in
  let rng = Random.State.make [| 0x6d75; 7 |] in
  (* cuts on, just before and just after the original frame
     boundaries, plus anywhere *)
  let near = Array.of_list (List.concat_map (fun b -> [ b - 1; b; b + 1 ]) (frame_starts s)) in
  let pick_cuts k n =
    let rec go acc =
      if List.length acc = k - 1 then Array.of_list (List.sort compare acc)
      else
        let c =
          if Random.State.bool rng then near.(Random.State.int rng (Array.length near))
          else 1 + Random.State.int rng (max 1 (n - 1))
        in
        go (if c >= 1 && c < n && not (List.mem c acc) then c :: acc else acc)
    in
    if n < k then [||] else go []
  in
  let splits = ref 0 and reruns = ref 0 in
  with_temp ".ntb" @@ fun path ->
  let rand_slice () =
    let a = Random.State.int rng len in
    let l = min (1 + Random.State.int rng 64) (len - a) in
    (a, l)
  in
  for i = 1 to 10_000 do
    let m =
      match Random.State.int rng 6 with
      | 0 ->
          let b = Bytes.of_string s in
          for _ = 0 to Random.State.int rng 8 do
            let p = Random.State.int rng len in
            Bytes.set b p
              (Char.chr (Char.code (Bytes.get b p) lxor (1 lsl Random.State.int rng 8)))
          done;
          Bytes.to_string b
      | 1 -> String.sub s 0 (Random.State.int rng (len + 1))
      | 2 ->
          let p = Random.State.int rng (len + 1) in
          let ins = String.init (1 + Random.State.int rng 64) (fun _ -> Char.chr (Random.State.int rng 256)) in
          String.sub s 0 p ^ ins ^ String.sub s p (len - p)
      | 3 ->
          let a, l = rand_slice () in
          String.sub s 0 a ^ String.sub s (a + l) (len - a - l)
      | 4 ->
          let a, l = rand_slice () in
          let b = Bytes.of_string s in
          for j = a to a + l - 1 do
            Bytes.set b j (Char.chr (Random.State.int rng 256))
          done;
          Bytes.to_string b
      | _ ->
          let a, l = rand_slice () in
          String.sub s 0 a ^ String.sub s a l ^ String.sub s a (len - a)
    in
    (* Totality: counted, never raised; delivery never exceeds the
       input's record population; the queue count agrees with stats. *)
    let st, out = decode_string m in
    if List.length out <> st.Tbin.records then
      Alcotest.failf "mutation %d: delivered %d <> stats %d" i (List.length out) st.Tbin.records;
    if st.Tbin.records > 320 then Alcotest.failf "mutation %d: invented records" i;
    (* Differential oracle on a subsample: whole-buffer decode and
       13-byte chunked feeding must agree bit-for-bit on any input. *)
    if i mod 100 = 0 then begin
      let st_c, out_c = decode_chunked 13 m in
      if st_c <> st || out_c <> out then
        Alcotest.failf "mutation %d: chunked decode diverges (%s vs %s)" i
          (Tbin.stats_to_string st_c) (Tbin.stats_to_string st);
      let st_ch, out_ch = decode_channel m in
      if st_ch <> st || out_ch <> out then
        Alcotest.failf "mutation %d: channel decode diverges (%s vs %s)" i
          (Tbin.stats_to_string st_ch) (Tbin.stats_to_string st)
    end;
    (* Split oracle: k ranges, stitched or read again as one, must
       decode exactly what the whole stream decodes. *)
    Out_channel.with_open_bin path (fun oc -> output_string oc m);
    List.iter
      (fun k ->
        let cuts = pick_cuts k (String.length m) in
        let st_s, out_s, stitched = decode_split path cuts in
        incr splits;
        if not stitched then incr reruns;
        if st_s <> st || out_s <> out then
          Alcotest.failf "mutation %d: %d-range decode diverges (%s vs %s)" i k
            (Tbin.stats_to_string st_s) (Tbin.stats_to_string st))
      [ 2; 3; 4 ]
  done;
  (* the rerun is the rare case, not the oracle doing all the work *)
  if !reruns * 20 > !splits then
    Alcotest.failf "%d of %d splits needed the one-range rerun" !reruns !splits

(* A file cut at every offset, and at k = 3 and 4 on and beside every
   frame boundary, decodes as the whole file does — and since nothing
   in it looks like a frame but the frames, without a rerun. *)
let test_clean_splits_stitch () =
  let s = Tbin.encode_string ~frame_records:8 (List.init 40 simple) in
  let n = String.length s in
  let st, out = decode_string s in
  with_temp ".ntb" (fun path ->
      Out_channel.with_open_bin path (fun oc -> output_string oc s);
      let check cuts =
        let st_s, out_s, stitched = decode_split path cuts in
        let label = String.concat "," (Array.to_list (Array.map string_of_int cuts)) in
        if not stitched then Alcotest.failf "cuts %s: clean stream did not stitch" label;
        if st_s <> st || out_s <> out then Alcotest.failf "cuts %s: decode diverges" label
      in
      for c = 1 to n - 1 do
        check [| c |]
      done;
      List.iter
        (fun b -> List.iter (fun d -> check [| b + d; b + d + 9; n - 2 |]) [ -1; 0; 1 ])
        (List.filter (fun b -> b > 1 && b + 10 < n - 2) (frame_starts s)))

(* ---------- golden wire lock ---------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let golden_ntb = "golden/tbin_fixture.ntb"
let golden_lines = "golden/tbin_fixture.lines"
let fixture_bytes () = Tbin.encode_string ~frame_records:8 (menagerie ())

(* NT_TBIN_GOLDEN_UPDATE=<dir> rewrites the source-tree goldens. *)
let () =
  match Sys.getenv_opt "NT_TBIN_GOLDEN_UPDATE" with
  | None -> ()
  | Some dir ->
      let write path s =
        let oc = open_out_bin path in
        output_string oc s;
        close_out oc
      in
      write (Filename.concat dir "tbin_fixture.ntb") (fixture_bytes ());
      write
        (Filename.concat dir "tbin_fixture.lines")
        (String.concat "" (List.map (fun r -> Record.to_line r ^ "\n") (menagerie ())))

let test_golden_encode () =
  Alcotest.(check string)
    "encoding the fixture records reproduces the checked-in bytes" (read_file golden_ntb)
    (fixture_bytes ())

let test_golden_decode () =
  let st, out = decode_string (read_file golden_ntb) in
  Alcotest.(check int) "fixture decodes clean" 0 (Tbin.failures st);
  Alcotest.(check string) "fixture decodes to the locked text rendering"
    (read_file golden_lines)
    (String.concat "" (List.map (fun r -> Record.to_line r ^ "\n") out))

(* ---------- analysis differential ---------- *)

let sections = [ `Summary; `Runs; `Names; `Hourly ]

(* Every section, lifetime in a set of its own: a report that asks for
   it reads one range, and the others should still fold in ranges. *)
let section_sets =
  [ List.filter (fun s -> s <> `Lifetime) Nt_par.Report.all_sections; [ `Lifetime ] ]

let render label texts =
  String.concat "\n"
    (List.map
       (fun (s, text) -> Printf.sprintf "== %s %s ==\n%s" label (Nt_par.Report.section_name s) text)
       texts)

let simulated_records () =
  let start = Nt_util.Trace_week.time_of ~day:Nt_util.Trace_week.Wed ~hour:9 ~minute:0 in
  let out = ref [] in
  let config = { Nt_workload.Email.default_config with Nt_workload.Email.users = 3 } in
  ignore
    (Nt_core.Pipeline.simulate_campus ~config ~start ~stop:(start +. 300.)
       ~sink:(fun r -> out := r :: !out)
       ());
  List.rev !out

let test_differential_text_tbin_stream () =
  let records = simulated_records () in
  Alcotest.(check bool) "workload produced records" true (List.length records > 100);
  with_temp ".trace" (fun text_path ->
      with_temp ".ntb" (fun tbin_path ->
          let oc = open_out_bin text_path in
          ignore (Record.write_channel oc (List.to_seq records));
          close_out oc;
          let oc = open_out_bin tbin_path in
          ignore (Tbin.write_channel ~frame_records:64 oc (List.to_seq records));
          close_out oc;
          let from_text = Nt_core.Pipeline.load_trace text_path in
          let from_tbin = Nt_core.Pipeline.load_trace ("tbin:" ^ tbin_path) in
          let from_sniff = Nt_core.Pipeline.load_trace tbin_path in
          if from_tbin <> records then Alcotest.failf "tbin: load changed the records";
          if from_sniff <> records then Alcotest.failf "sniffed load changed the records";
          let check sections jobs =
            let label = Printf.sprintf "jobs %d" jobs in
            let base =
              render label (Nt_par.Report.run ~jobs ~sections (Array.of_list from_text))
            in
            let tbin =
              render label (Nt_par.Report.run ~jobs ~sections (Array.of_list from_tbin))
            in
            Alcotest.(check string) (label ^ ": text vs tbin") base tbin;
            Alcotest.(check string) (label ^ ": jobs 1 vs jobs " ^ string_of_int jobs)
              (render label (Nt_par.Report.run ~jobs:1 ~sections (Array.of_list from_text)))
              base;
            List.iter
              (fun path ->
                let streamed, n, src = Nt_core.Pipeline.analyze_trace ~jobs ~sections path in
                Alcotest.(check int) (label ^ ": streamed record count") (List.length records) n;
                Alcotest.(check (list string)) (label ^ ": nothing skipped") []
                  (Nt_core.Pipeline.skipped_notes ~tool:"t" src);
                Alcotest.(check string) (label ^ ": text vs streamed " ^ path) base
                  (render label streamed))
              [ text_path; tbin_path ]
          in
          List.iter (fun sections -> List.iter (check sections) [ 1; 2; 4 ]) section_sets))

let test_differential_pcap_leg () =
  (* The capture path: pcap -> records, then those records through the
     text and tbin containers must analyze identically. *)
  let start = Nt_util.Trace_week.time_of ~day:Nt_util.Trace_week.Wed ~hour:9 ~minute:0 in
  with_temp ".pcap" (fun pcap_path ->
      let oc = open_out_bin pcap_path in
      let writer = Nt_net.Pcap.writer_to_channel oc in
      let config = { Nt_workload.Email.default_config with Nt_workload.Email.users = 2 } in
      ignore
        (Nt_core.Pipeline.campus_to_pcap ~config ~start ~stop:(start +. 120.) ~writer ());
      close_out oc;
      let ic = open_in_bin pcap_path in
      let reader = Nt_net.Pcap.reader_of_channel ic in
      let capture = Nt_trace.Capture.create () in
      Nt_trace.Capture.feed_pcap capture reader;
      let _, captured = Nt_trace.Capture.finish capture in
      close_in ic;
      Alcotest.(check bool) "capture produced records" true (List.length captured > 50);
      let st, out = decode_string (Tbin.encode_string ~frame_records:64 captured) in
      Alcotest.(check int) "captured records round-trip clean" 0 (Tbin.failures st);
      if out <> captured then Alcotest.failf "tbin changed the captured records";
      List.iter
        (fun sections ->
          let base = render "pcap" (Nt_par.Report.run ~jobs:4 ~sections (Array.of_list captured)) in
          let via_tbin = render "pcap" (Nt_par.Report.run ~jobs:4 ~sections (Array.of_list out)) in
          Alcotest.(check string) "pcap records via tbin analyze identically" base via_tbin)
        section_sets)

(* A pcap source decodes through the capture as nfstrace --salvage
   does: for clean TCP and UDP captures, bursty loss, snaplen
   truncation and a byte-mangled savefile, the records and stats it
   yields are the ones nfstrace's tbin output and stats line hold, and
   the report over the pcap at one and four jobs is the tbin's. *)
let test_pcap_source_matches_nfstrace () =
  let start = Nt_util.Trace_week.time_of ~day:Nt_util.Trace_week.Wed ~hour:9 ~minute:0 in
  let capture ?fault system =
    let b = Buffer.create (1 lsl 20) in
    let writer = Nt_net.Pcap.writer_to_buffer b in
    (match system with
    | `Campus ->
        let config = { Nt_workload.Email.default_config with Nt_workload.Email.users = 2 } in
        ignore
          (Nt_core.Pipeline.campus_to_pcap ~config ?fault ~start ~stop:(start +. 120.) ~writer ()
            : Nt_core.Pipeline.pcap_stats)
    | `Eecs ->
        let config = { Nt_workload.Research.default_config with Nt_workload.Research.users = 2 } in
        ignore
          (Nt_core.Pipeline.eecs_to_pcap ~config ?fault ~start ~stop:(start +. 300.) ~writer ()
            : Nt_core.Pipeline.pcap_stats));
    Buffer.contents b
  in
  let clean = capture `Campus in
  let cases =
    [
      ("clean tcp", clean);
      ("clean udp", capture `Eecs);
      ("burst", capture ~fault:Nt_sim.Fault.campus_burst `Campus);
      ( "truncated",
        capture ~fault:{ Nt_sim.Fault.none with truncate = 0.25; truncate_to = 64 } `Campus );
      ("mangled", fst (Nt_sim.Fault.mangle_pcap ~flips:40 clean));
    ]
  in
  List.iter
    (fun (label, pcap) ->
      with_temp ".pcap" (fun pcap_path ->
          with_temp ".ntb" (fun tbin_path ->
              Out_channel.with_open_bin pcap_path (fun oc -> output_string oc pcap);
              let want_stats, aborted =
                Out_channel.with_open_bin Filename.null (fun oc ->
                    Out_channel.with_open_bin tbin_path (fun toc ->
                        Nt_core.Pipeline.trace_pcap ~tbin:toc
                          (Nt_net.Pcap.reader_of_string ~salvage:true pcap)
                          oc))
              in
              Alcotest.(check bool) (label ^ ": nfstrace ran to the end") true (aborted = None);
              let want = Nt_core.Pipeline.load_trace ("tbin:" ^ tbin_path) in
              Alcotest.(check bool) (label ^ ": records") true (List.length want > 20);
              let got = ref [] in
              let src = Nt_core.Pipeline.iter_trace pcap_path (fun r -> got := r :: !got) in
              if List.rev !got <> want then Alcotest.failf "%s: the pcap source changed the records" label;
              Alcotest.(check (option string)) (label ^ ": capture stats")
                (Some (Nt_trace.Capture.stats_to_string want_stats))
                (Option.map Nt_trace.Capture.stats_to_string src.capture);
              let report jobs spec =
                let texts, _, _ =
                  Nt_core.Pipeline.analyze_trace ~jobs ~sections:Nt_par.Report.all_sections spec
                in
                render label texts
              in
              let base = report 1 ("tbin:" ^ tbin_path) in
              List.iter
                (fun jobs ->
                  Alcotest.(check string)
                    (Printf.sprintf "%s: pcap report at jobs %d" label jobs)
                    base (report jobs pcap_path))
                [ 1; 4 ])))
    cases

(* nfstrace without --salvage on a capture whose middle record header
   is damaged: the decode stops there, and the text and tbin outputs
   still hold the same records, with the frames read before the damage
   counted. *)
let test_aborted_decode_outputs_agree () =
  let start = Nt_util.Trace_week.time_of ~day:Nt_util.Trace_week.Wed ~hour:9 ~minute:0 in
  let pcap =
    let b = Buffer.create (1 lsl 20) in
    let writer = Nt_net.Pcap.writer_to_buffer b in
    let config = { Nt_workload.Email.default_config with Nt_workload.Email.users = 2 } in
    ignore (Nt_core.Pipeline.campus_to_pcap ~config ~start ~stop:(start +. 120.) ~writer ());
    Buffer.to_bytes b
  in
  (* Record header offsets, past the 24-byte global header. *)
  let rec headers acc off =
    if off + 16 > Bytes.length pcap then List.rev acc
    else headers (off :: acc) (off + 16 + Int32.to_int (Bytes.get_int32_le pcap (off + 8)))
  in
  let offs = headers [] 24 in
  let damaged = List.length offs / 2 in
  Bytes.set_int32_le pcap (List.nth offs damaged + 8) 0x7fff_ffffl;
  with_temp ".trace" (fun text_path ->
      with_temp ".ntb" (fun tbin_path ->
          let stats, aborted =
            Out_channel.with_open_bin text_path (fun oc ->
                Out_channel.with_open_bin tbin_path (fun toc ->
                    Nt_core.Pipeline.trace_pcap ~tbin:toc
                      (Nt_net.Pcap.reader_of_string (Bytes.to_string pcap))
                      oc))
          in
          Alcotest.(check bool) "decode aborted" true (Option.is_some aborted);
          Alcotest.(check int) "frames before the damage" damaged stats.frames;
          let st, records = decode_string (read_file tbin_path) in
          Alcotest.(check int) "tbin is clean" 0 (Tbin.failures st);
          Alcotest.(check bool) "records before the damage" true (List.length records > 20);
          Alcotest.(check string) "text and tbin hold the same records" (read_file text_path)
            (String.concat "" (List.map (fun r -> Record.to_line r ^ "\n") records))))

(* Every stored frame of an encoded stream rewritten uncompressed, so
   the payload bytes appear in the file verbatim. *)
let uncompressed s =
  let b = Buffer.create (String.length s) in
  Buffer.add_string b Tbin.magic;
  List.iter
    (fun p ->
      let le32 o = Int32.to_int (String.get_int32_le s (p + o)) land 0xFFFF_FFFF in
      let raw_len = le32 5 and stored = le32 9 in
      let raw =
        if Char.code s.[p + 4] land 1 = 0 then String.sub s (p + 17) stored
        else Frame.decompress s ~pos:(p + 17) ~len:stored ~expect:raw_len
      in
      Buffer.add_string b Tbin.sync;
      Buffer.add_char b '\000';
      Buffer.add_int32_le b (Int32.of_int raw_len);
      Buffer.add_int32_le b (Int32.of_int raw_len);
      Buffer.add_int32_le b (Int32.of_int (Frame.adler32 raw ~pos:0 ~len:raw_len));
      Buffer.add_string b raw)
    (frame_starts s);
  Buffer.contents b

let rec find_sub s sub from =
  if from + String.length sub > String.length s then -1
  else if String.sub s from (String.length sub) = sub then from
  else find_sub s sub (from + 1)

(* A LOOKUP whose name is a whole checksum-valid frame, in the second
   frame of a file. A range that starts between that frame's start and
   the embedded one takes the embedded one for its first frame, while
   the range before it reads the real frame to the end: the stitch
   fails, the file is read again as one range, and the result is the
   whole decode's — through the tbin reader and through nfsstats'
   source alike. *)
let test_embedded_frame_reruns () =
  let inner = uncompressed (Tbin.encode_string [ simple 999 ]) in
  let inner = String.sub inner (String.length Tbin.magic) (String.length inner - String.length Tbin.magic) in
  let crafted = mk (Ops.Lookup { dir = fh_a; name = inner }) in
  let s = uncompressed (Tbin.encode_string ~frame_records:6 (List.init 6 simple @ [ crafted ])) in
  let start1 = List.nth (frame_starts s) 1 in
  let p = find_sub s inner start1 in
  Alcotest.(check bool) "the embedded frame lies in the second frame" true (p > start1);
  let st, out = decode_string s in
  Alcotest.(check int) "whole decode: clean" 0 (Tbin.failures st);
  Alcotest.(check bool) "whole decode: the crafted record" true (List.mem crafted out);
  with_temp ".ntb" (fun path ->
      Out_channel.with_open_bin path (fun oc -> output_string oc s);
      List.iter
        (fun c ->
          let st_s, out_s, stitched = decode_split path [| c |] in
          Alcotest.(check bool) (Printf.sprintf "cut at %d: rerun" c) false stitched;
          if st_s <> st || out_s <> out then Alcotest.failf "cut at %d: decode diverges" c)
        [ start1 + 1; p - 1; p ];
      (* the first range count whose cut falls in (start1, p] *)
      let n = String.length s in
      let rec straddling k =
        if k > 64 then Alcotest.fail "no range count cuts the crafted frame"
        else if List.exists (fun i -> let c = n * i / k in c > start1 && c <= p) (List.init k Fun.id)
        then k
        else straddling (k + 1)
      in
      let k = straddling 2 in
      let analyze jobs =
        let obs = Nt_obs.Obs.create () in
        let texts, count, src = Nt_core.Pipeline.analyze_trace ~obs ~jobs ~sections path in
        let spans =
          match Nt_obs.Obs.get_span (Nt_obs.Obs.snapshot obs) "par.pass.summary" with
          | Some sp -> sp.Nt_obs.Obs.count
          | None -> 0
        in
        (render "embedded" texts, count, src, spans)
      in
      let want, n1, src1, _ = analyze 1 in
      let got, nk, srck, spans = analyze k in
      Alcotest.(check string) (Printf.sprintf "jobs %d: report" k) want got;
      Alcotest.(check int) (Printf.sprintf "jobs %d: records" k) n1 nk;
      if src1 <> srck then Alcotest.failf "jobs %d: source stats diverge" k;
      Alcotest.(check int) (Printf.sprintf "jobs %d: read again as one range" k) 1 spans)

(* Text ranges split at line starts: cut anywhere, the lines parse
   once each — a malformed line or the unterminated last one included —
   and every range halts where the next one starts. *)
let test_text_split_every_offset () =
  let line i = Record.to_line (simple i) in
  let text =
    String.concat "\n" [ line 0; line 1; ""; "garbage that spans a cut"; line 2; line 3 ]
  in
  let n = String.length text in
  with_temp ".trace" (fun path ->
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      let read ~lo ~hi =
        let out = ref [] in
        let r =
          In_channel.with_open_bin path (fun ic ->
              Record.iter_range ic ~lo ~hi (fun x -> out := x :: !out))
        in
        (r, List.rev !out)
      in
      let whole, want = read ~lo:0 ~hi:max_int in
      Alcotest.(check int) "whole: one malformed line" 1 whole.Record.rejected;
      Alcotest.(check int) "whole: four records" 4 (List.length want);
      for c = 1 to n - 1 do
        let a, ra = read ~lo:0 ~hi:c and b, rb = read ~lo:c ~hi:max_int in
        if a.Record.stop <> b.Record.first then
          Alcotest.failf "cut at %d: range 0 stops at %d, range 1 starts at %d" c a.Record.stop
            b.Record.first;
        if ra @ rb <> want then Alcotest.failf "cut at %d: records diverge" c;
        Alcotest.(check int) (Printf.sprintf "cut at %d: rejected" c) 1
          (a.Record.rejected + b.Record.rejected)
      done)

(* nfsstats' source at every range count against one range, on the
   text shapes a cut can land badly in. *)
let test_text_ranges_match_one () =
  let lines k = List.init k (fun i -> Record.to_line (simple i) ^ "\n") in
  let cases =
    [
      ("malformed line straddling the cuts",
        String.concat "" (lines 6 @ [ String.make 2000 'x' ^ "\n" ] @ lines 6));
      ("unterminated last line", String.concat "" (lines 8) ^ Record.to_line (simple 8));
      ("long unterminated last line", String.concat "" (lines 4) ^ String.make 2000 'x');
      ("empty file", "");
      ("shorter than the range count", "x\n");
      ("more ranges than lines", String.concat "" (lines 3));
    ]
  in
  List.iter
    (fun (label, text) ->
      with_temp ".trace" (fun path ->
          Out_channel.with_open_bin path (fun oc -> output_string oc text);
          let analyze jobs =
            let obs = Nt_obs.Obs.create () in
            let texts, n, src = Nt_core.Pipeline.analyze_trace ~obs ~jobs ~sections path in
            let ranges =
              match Nt_obs.Obs.get_span (Nt_obs.Obs.snapshot obs) "par.pass.summary" with
              | Some sp -> sp.Nt_obs.Obs.count
              | None -> 0
            in
            (texts, n, src, ranges)
          in
          let want, n1, src1, _ = analyze 1 in
          List.iter
            (fun jobs ->
              let got, n, src, ranges = analyze jobs in
              let l = Printf.sprintf "%s, jobs %d" label jobs in
              Alcotest.(check string) (l ^ ": report") (render l want) (render l got);
              Alcotest.(check int) (l ^ ": records") n1 n;
              Alcotest.(check int) (l ^ ": rejected") src1.Nt_core.Pipeline.rejected
                src.Nt_core.Pipeline.rejected;
              (* text ranges always stitch: no rerun *)
              Alcotest.(check int) (l ^ ": ranges") (max 1 (min jobs (String.length text))) ranges)
            [ 2; 3; 4; 8 ]))
    cases

(* The benchmark's campus-tbin-stats input (360 CAMPUS users from
   Wednesday 9am, seed 1, first 160,000 records, 4096-record frames)
   with one byte flipped at 500,000, 3,000,000 and 9,000,000: three
   frames are lost, and the tools must say so instead of printing a
   smaller record count alone. *)
exception Enough

let test_source_sniffs_content () =
  (* A bare path is sniffed by its first bytes, never by its name; a
     prefix names the format outright; a pcap decodes through the
     capture. *)
  let rs = List.init 10 simple in
  let pcap =
    let b = Buffer.create 256 in
    Nt_net.Pcap.write (Nt_net.Pcap.writer_to_buffer b) ~time:1. (String.make 60 'x');
    Buffer.contents b
  in
  let text = String.concat "" (List.map (fun r -> Nt_trace.Record.to_line r ^ "\n") rs) in
  let module P = Nt_core.Pipeline in
  with_temp ".trace" (fun tbin_path ->
      with_temp ".ntb" (fun text_path ->
          with_temp ".trace" (fun pcap_path ->
              let write path s = Out_channel.with_open_bin path (fun oc -> output_string oc s) in
              write tbin_path (Tbin.encode_string rs);
              write text_path text;
              write pcap_path pcap;
              let format spec = fst (P.source spec) in
              Alcotest.(check bool) "tbin by magic" true (format tbin_path = P.Tbin);
              Alcotest.(check bool) "text despite .ntb" true (format text_path = P.Text);
              Alcotest.(check bool) "pcap by magic" true (format pcap_path = P.Pcap);
              Alcotest.(check bool) "prefix wins" true
                (P.source ("tbin:" ^ text_path) = (P.Tbin, text_path));
              Alcotest.(check bool) "stdin is text" true (P.source "-" = (P.Text, "-"));
              Alcotest.(check bool) "missing file is text" true (format (pcap_path ^ ".none") = P.Text);
              Alcotest.(check int) "sniffed tbin loads" 10 (List.length (P.load_trace tbin_path));
              let src = P.iter_trace pcap_path ignore in
              Alcotest.(check (option int)) "sniffed pcap decodes" (Some 1)
                (Option.map (fun (st : Nt_trace.Capture.stats) -> st.frames) src.capture);
              (* a global header cut short leaves nothing to salvage *)
              write pcap_path (String.sub pcap 0 20);
              Alcotest.(check bool) "cut header is Bad_format" true
                (match P.iter_trace pcap_path ignore with
                | _ -> false
                | exception Nt_net.Pcap.Bad_format _ -> true))))

let test_damaged_frames_reported () =
  let start = Nt_util.Trace_week.time_of ~day:Nt_util.Trace_week.Wed ~hour:9 ~minute:0 in
  let config = { Nt_workload.Email.default_config with users = 360; seed = 1L } in
  let b = Buffer.create (16 lsl 20) in
  let w = Tbin.Writer.create (Buffer.add_string b) in
  let n = ref 0 in
  (try
     ignore
       (Nt_core.Pipeline.simulate_campus ~config ~start ~stop:(start +. 86400.)
          ~sink:(fun r ->
            if !n = 160_000 then raise Enough;
            incr n;
            Tbin.Writer.add w r)
          ()
        : Nt_core.Pipeline.run_stats)
   with Enough -> ());
  Tbin.Writer.close w;
  let damaged = flip_bytes (Buffer.contents b) [ 500_000; 3_000_000; 9_000_000 ] in
  with_temp ".ntb" (fun path ->
      let count path =
        let n = ref 0 in
        let src = Nt_core.Pipeline.iter_trace path (fun _ -> incr n) in
        (!n, src)
      in
      Out_channel.with_open_bin path (fun oc -> Buffer.output_buffer oc b);
      let clean, src = count path in
      Alcotest.(check int) "clean: every record" 160_000 clean;
      Alcotest.(check (list string)) "clean: nothing to report" []
        (Nt_core.Pipeline.skipped_notes ~tool:"nfsstats" src);
      Out_channel.with_open_bin path (fun oc -> output_string oc damaged);
      let loaded, src = count path in
      Alcotest.(check int) "three frames lost" (160_000 - (3 * 4096)) loaded;
      let st = Option.get src.Nt_core.Pipeline.tbin in
      Alcotest.(check int) "three bad frames" 3 st.Tbin.bad_frames;
      Alcotest.(check int) "no other failure" 3 (Tbin.failures st);
      Alcotest.(check (list string)) "the loss is reported"
        [
          Printf.sprintf "nfsstats: 3 damaged tbin frames skipped (%d bytes)"
            st.Tbin.skipped_bytes;
        ]
        (Nt_core.Pipeline.skipped_notes ~tool:"nfsstats" src))

(* ---------- suite ---------- *)

let () =
  Alcotest.run "nt_tbin"
    [
      ( "varint",
        [
          Alcotest.test_case "boundary values round-trip" `Quick test_varint_bounds;
          Alcotest.test_case "truncated and overlong raise Corrupt" `Quick test_varint_corrupt;
        ] );
      ( "frame",
        [
          Alcotest.test_case "adler32 reference values" `Quick test_adler32;
          QCheck_alcotest.to_alcotest prop_adler32_bytewise;
          Alcotest.test_case "adler32 on 0xFF runs at batch edges" `Quick test_adler32_ff_runs;
          QCheck_alcotest.to_alcotest prop_rle_roundtrip;
          QCheck_alcotest.to_alcotest prop_rle_roundtrip_runs;
          Alcotest.test_case "decompress rejects bad shapes" `Quick test_rle_rejects;
        ] );
      ( "roundtrip",
        [
          Alcotest.test_case "menagerie of every constructor" `Quick test_menagerie_roundtrip;
          QCheck_alcotest.to_alcotest prop_roundtrip_one;
          QCheck_alcotest.to_alcotest prop_roundtrip_list;
          QCheck_alcotest.to_alcotest prop_one_byte_feed;
          Alcotest.test_case "frame split at every byte offset" `Quick
            test_split_at_every_offset;
        ] );
      ( "decoder",
        [
          Alcotest.test_case "compressed frames share one scratch" `Quick
            test_compressed_frames_share_scratch;
          Alcotest.test_case "empty and header-only streams" `Quick test_empty_and_magic_only;
          Alcotest.test_case "garbage counts one missing header" `Quick
            test_garbage_is_missing_header;
          Alcotest.test_case "chunked feeding equals whole-buffer" `Quick
            test_chunked_equals_whole;
          Alcotest.test_case "feeder, channel and whole-string decode agree" `Quick
            test_paths_agree;
          Alcotest.test_case "window slides and grows under delivered records" `Quick
            test_window_growth;
          Alcotest.test_case "replay offsets and reset_at" `Quick test_offsets_and_reset;
          Alcotest.test_case "writer flush keeps the stream appendable" `Quick
            test_writer_flush_appendable;
          Alcotest.test_case "decoder mirrors stats onto obs" `Quick test_obs_mirror;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "single bit flips cost exactly one counter" `Quick
            test_single_bit_flips;
          Alcotest.test_case "truncations lose only the cut frame" `Quick test_truncations;
          Alcotest.test_case "concatenated streams resync" `Quick test_concat_resync;
          Alcotest.test_case "10k-mutation storm: total, conservative" `Slow
            test_mutation_storm;
        ] );
      ( "ranges",
        [
          Alcotest.test_case "clean splits stitch and decode as whole" `Quick
            test_clean_splits_stitch;
          Alcotest.test_case "embedded frame across a cut reruns as one range" `Quick
            test_embedded_frame_reruns;
          Alcotest.test_case "text split at every offset" `Quick test_text_split_every_offset;
          Alcotest.test_case "text ranges match one range" `Quick test_text_ranges_match_one;
        ] );
      ( "golden",
        [
          Alcotest.test_case "encode matches checked-in bytes" `Quick test_golden_encode;
          Alcotest.test_case "fixture decodes to locked text" `Quick test_golden_decode;
          QCheck_alcotest.to_alcotest prop_add_line;
          Alcotest.test_case "field writers on adversarial values" `Quick test_writer_oracle;
          QCheck_alcotest.to_alcotest prop_writer_doubles;
        ] );
      ( "differential",
        [
          Alcotest.test_case "text vs tbin vs streamed, jobs 1 and 4" `Slow
            test_differential_text_tbin_stream;
          Alcotest.test_case "pcap-derived records via tbin" `Slow test_differential_pcap_leg;
          Alcotest.test_case "pcap source matches nfstrace's tbin" `Slow
            test_pcap_source_matches_nfstrace;
          Alcotest.test_case "aborted decode: text and tbin agree" `Quick
            test_aborted_decode_outputs_agree;
          Alcotest.test_case "damaged frames are reported, not silently dropped" `Slow
            test_damaged_frames_reported;
          Alcotest.test_case "bare paths are sniffed by content" `Quick test_source_sniffs_content;
        ] );
    ]
