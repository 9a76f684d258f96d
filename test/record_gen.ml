(* QCheck generators over the full Record.t constructor space, shared by
   the tbin codec battery and the text-parser tests. *)

module T = Nt_nfs.Types
module Ops = Nt_nfs.Ops
module Fh = Nt_nfs.Fh
module Record = Nt_trace.Record
module G = QCheck.Gen

let gen_name =
  G.oneof
    [
      G.return "";
      G.string_size ~gen:G.printable (G.int_range 1 40);
      G.map (fun n -> String.make n 'z') (G.int_range 1000 3000);
    ]

let gen_fh = G.map Fh.of_raw (G.string_size ~gen:G.char (G.int_range 0 64))

let gen_bint =
  G.oneof [ G.oneofl [ 0; 1; -1; 127; 128; 16383; 16384; max_int; min_int ]; G.int ]

let gen_nat = G.oneof [ G.oneofl [ 0; 1; 127; 128; 65535; max_int ]; G.small_nat ]

let gen_i64 =
  G.oneof
    [
      G.oneofl [ 0L; 1L; -1L; 127L; 128L; Int64.max_int; Int64.min_int ];
      G.map Int64.of_int G.int;
    ]

let gen_f =
  G.oneof
    [
      G.oneofl [ 0.; -0.; 1.; -1.; infinity; neg_infinity; 1e-300; 1.7976931348623157e308 ];
      G.map2
        (fun s us -> float_of_int s +. (float_of_int us /. 1e6))
        (G.int_range 0 2_000_000_000) (G.int_range 0 999_999);
      (* Nanosecond and 1/2^k fractions reach the writer's near-tie,
         exact-tie and carry cases, which microsecond steps never do. *)
      G.map2
        (fun s ns -> float_of_int s +. (float_of_int ns *. 1e-9))
        (G.int_range 0 2_000_000_000) (G.int_range 0 999_999_999);
      G.map3
        (fun s m k -> float_of_int s +. Float.ldexp (float_of_int (m land ((1 lsl k) - 1))) (-k))
        (G.int_range 0 2_000_000_000) (G.int_bound (1 lsl 24)) (G.int_range 1 24);
    ]

let gen_time_t =
  G.oneof
    [
      G.map2 (fun s n -> { T.seconds = s; nanos = n }) gen_bint gen_nat;
      G.map2
        (fun s n -> { T.seconds = s; nanos = n })
        (G.int_range 0 4_000_000_000) (G.int_range 0 999_999_999);
    ]

let gen_ftype = G.oneofl [ T.Reg; T.Dir; T.Blk; T.Chr; T.Lnk; T.Sock; T.Fifo ]
let gen_stable = G.oneofl [ T.Unstable; T.Data_sync; T.File_sync ]

let gen_fattr =
  G.map3
    (fun (ftype, mode, nlink, uid) (gid, size, used, fsid) (fileid, atime, mtime, ctime) ->
      { T.ftype; mode; nlink; uid; gid; size; used; fsid; fileid; atime; mtime; ctime })
    (G.quad gen_ftype gen_bint gen_bint gen_bint)
    (G.quad gen_bint gen_i64 gen_i64 gen_i64)
    (G.quad gen_i64 gen_time_t gen_time_t gen_time_t)

let gen_sattr =
  G.map2
    (fun (set_mode, set_uid, set_gid) (set_size, set_atime, set_mtime) ->
      { T.set_mode; set_uid; set_gid; set_size; set_atime; set_mtime })
    (G.triple (G.opt gen_bint) (G.opt gen_bint) (G.opt gen_bint))
    (G.triple (G.opt gen_i64) (G.opt gen_time_t) (G.opt gen_time_t))

let gen_entry =
  G.map3
    (fun entry_fileid entry_name entry_cookie -> { Ops.entry_fileid; entry_name; entry_cookie })
    gen_i64 gen_name gen_i64

let gen_call =
  G.oneof
    [
      G.return Ops.Null;
      G.map (fun fh -> Ops.Getattr fh) gen_fh;
      G.map2 (fun fh attrs -> Ops.Setattr { fh; attrs }) gen_fh gen_sattr;
      G.map2 (fun dir name -> Ops.Lookup { dir; name }) gen_fh gen_name;
      G.map2 (fun fh access -> Ops.Access { fh; access }) gen_fh gen_nat;
      G.map (fun fh -> Ops.Readlink fh) gen_fh;
      G.map3 (fun fh offset count -> Ops.Read { fh; offset; count }) gen_fh gen_i64 gen_nat;
      G.map
        (fun (fh, offset, count, stable) -> Ops.Write { fh; offset; count; stable })
        (G.quad gen_fh gen_i64 gen_nat gen_stable);
      G.map
        (fun (dir, name, mode, exclusive) -> Ops.Create { dir; name; mode; exclusive })
        (G.quad gen_fh gen_name gen_nat G.bool);
      G.map3 (fun dir name mode -> Ops.Mkdir { dir; name; mode }) gen_fh gen_name gen_nat;
      G.map3 (fun dir name target -> Ops.Symlink { dir; name; target }) gen_fh gen_name gen_name;
      G.map2 (fun dir name -> Ops.Mknod { dir; name }) gen_fh gen_name;
      G.map2 (fun dir name -> Ops.Remove { dir; name }) gen_fh gen_name;
      G.map2 (fun dir name -> Ops.Rmdir { dir; name }) gen_fh gen_name;
      G.map
        (fun (from_dir, from_name, to_dir, to_name) ->
          Ops.Rename { from_dir; from_name; to_dir; to_name })
        (G.quad gen_fh gen_name gen_fh gen_name);
      G.map3 (fun fh to_dir to_name -> Ops.Link { fh; to_dir; to_name }) gen_fh gen_fh gen_name;
      G.map3 (fun dir cookie count -> Ops.Readdir { dir; cookie; count }) gen_fh gen_i64 gen_nat;
      G.map3
        (fun dir cookie count -> Ops.Readdirplus { dir; cookie; count })
        gen_fh gen_i64 gen_nat;
      G.map (fun fh -> Ops.Statfs fh) gen_fh;
      G.map (fun fh -> Ops.Fsinfo fh) gen_fh;
      G.map (fun fh -> Ops.Pathconf fh) gen_fh;
      G.map3 (fun fh offset count -> Ops.Commit { fh; offset; count }) gen_fh gen_i64 gen_nat;
    ]

(* Statuses are generated through [nfsstat_of_int] so the value is
   always the canonical constructor for its wire code — the codec
   stores the code, so only canonical values can round-trip. *)
let gen_nfsstat = G.map T.nfsstat_of_int (G.oneof [ G.int_range 0 120; G.int_range 10000 10010 ])

let gen_success =
  G.oneof
    [
      G.return Ops.R_null;
      G.map (fun a -> Ops.R_attr a) gen_fattr;
      G.map3
        (fun fh obj dir -> Ops.R_lookup { fh; obj; dir })
        gen_fh (G.opt gen_fattr) (G.opt gen_fattr);
      G.map (fun a -> Ops.R_access a) gen_nat;
      G.map (fun s -> Ops.R_readlink s) gen_name;
      G.map3 (fun attr count eof -> Ops.R_read { attr; count; eof }) (G.opt gen_fattr) gen_nat
        G.bool;
      G.map3
        (fun count committed attr -> Ops.R_write { count; committed; attr })
        gen_nat gen_stable (G.opt gen_fattr);
      G.map2 (fun fh attr -> Ops.R_create { fh; attr }) (G.opt gen_fh) (G.opt gen_fattr);
      G.return Ops.R_empty;
      G.map2
        (fun entries eof -> Ops.R_readdir { entries; eof })
        (G.list_size (G.int_range 0 20) gen_entry)
        G.bool;
      G.map2
        (fun total_bytes free_bytes -> Ops.R_statfs { total_bytes; free_bytes })
        gen_i64 gen_i64;
      G.map2 (fun rtmax wtmax -> Ops.R_fsinfo { rtmax; wtmax }) gen_nat gen_nat;
      G.map (fun name_max -> Ops.R_pathconf { name_max }) gen_nat;
    ]

let gen_result =
  G.opt (G.oneof [ G.map (fun s -> Ok s) gen_success; G.map (fun e -> Error e) gen_nfsstat ])

let gen_record =
  G.map3
    (fun (time, reply_time, client, server) (version, xid, uid, gid) (call, result) ->
      { Record.time; reply_time; client; server; version; xid; uid; gid; call; result })
    (G.quad gen_f (G.opt gen_f) gen_bint gen_bint)
    (G.quad (G.oneofl [ 2; 3 ]) gen_bint gen_bint gen_bint)
    (G.pair gen_call gen_result)

let arb_record = QCheck.make ~print:Record.to_line gen_record

let arb_records =
  QCheck.make
    ~print:(fun rs -> String.concat "\n" (List.map Record.to_line rs))
    (G.list_size (G.int_range 0 40) gen_record)
