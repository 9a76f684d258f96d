let adler_base = 65521
let adler_nmax = 5552 (* zlib's bound: the sums of one batch stay below 2^32 *)

(* Eight bytes per step: after bytes c0..c7, a gains their sum and b
   gains 8a + 8c0 + 7c1 + ... + 1c7, which is 8a plus the eight prefix
   sums s1 = c0, s2 = c0 + c1, ..., s8 = c0 + ... + c7. A byte loop
   takes each batch's tail. *)
let adler32 s ~pos ~len =
  let a = ref 1 and b = ref 0 in
  let i = ref pos in
  let stop = pos + len in
  while !i < stop do
    let batch_stop = min stop (!i + adler_nmax) in
    while !i + 8 <= batch_stop do
      let j = !i in
      let s1 = Char.code (String.unsafe_get s j) in
      let s2 = s1 + Char.code (String.unsafe_get s (j + 1)) in
      let s3 = s2 + Char.code (String.unsafe_get s (j + 2)) in
      let s4 = s3 + Char.code (String.unsafe_get s (j + 3)) in
      let s5 = s4 + Char.code (String.unsafe_get s (j + 4)) in
      let s6 = s5 + Char.code (String.unsafe_get s (j + 5)) in
      let s7 = s6 + Char.code (String.unsafe_get s (j + 6)) in
      let s8 = s7 + Char.code (String.unsafe_get s (j + 7)) in
      b := !b + (8 * !a) + s1 + s2 + s3 + s4 + s5 + s6 + s7 + s8;
      a := !a + s8;
      i := j + 8
    done;
    while !i < batch_stop do
      a := !a + Char.code (String.unsafe_get s !i);
      b := !b + !a;
      incr i
    done;
    a := !a mod adler_base;
    b := !b mod adler_base
  done;
  (!b lsl 16) lor !a

let min_run = 3
let max_run = 130
let max_literal = 128

let compress s =
  let n = String.length s in
  let out = Buffer.create (n / 2) in
  let lit_start = ref 0 in
  let flush_literals stop =
    let i = ref !lit_start in
    while !i < stop do
      let chunk = min max_literal (stop - !i) in
      Buffer.add_char out (Char.unsafe_chr (chunk - 1));
      Buffer.add_substring out s !i chunk;
      i := !i + chunk
    done;
    lit_start := stop
  in
  let i = ref 0 in
  while !i < n do
    let c = String.unsafe_get s !i in
    let run = ref 1 in
    while !i + !run < n && !run < max_run && String.unsafe_get s (!i + !run) = c do
      incr run
    done;
    if !run >= min_run then begin
      flush_literals !i;
      Buffer.add_char out (Char.unsafe_chr (128 + (!run - min_run)));
      Buffer.add_char out c;
      i := !i + !run;
      lit_start := !i
    end
    else i := !i + !run
  done;
  flush_literals n;
  Buffer.contents out

let decompress_into s ~pos ~len out ~expect =
  let stop = pos + len in
  let i = ref pos and o = ref 0 in
  while !i < stop do
    let c = Char.code (String.unsafe_get s !i) in
    incr i;
    if c < 128 then begin
      let chunk = c + 1 in
      if !i + chunk > stop || !o + chunk > expect then raise Varint.Corrupt;
      Bytes.blit_string s !i out !o chunk;
      i := !i + chunk;
      o := !o + chunk
    end
    else begin
      let run = c - 128 + min_run in
      if !i >= stop || !o + run > expect then raise Varint.Corrupt;
      Bytes.fill out !o run (String.unsafe_get s !i);
      incr i;
      o := !o + run
    end
  done;
  if !o <> expect then raise Varint.Corrupt

let decompress s ~pos ~len ~expect =
  let out = Bytes.create expect in
  decompress_into s ~pos ~len out ~expect;
  Bytes.unsafe_to_string out
