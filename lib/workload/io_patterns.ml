module Prng = Nt_util.Prng
module Client = Nt_sim.Client

let seeky_write rng s fh ~total ~seg_min ~seg_max ~jump_prob ~sync =
  assert (seg_min > 0 && seg_max >= seg_min);
  (* Partition [0, total) into segments, then perturb the write order:
     each segment is written exactly once (same bytes and op count as a
     sequential rewrite), but segment boundaries seek forward or
     backward the way a mail client's copy-compaction or a linker's
     section emission does. *)
  (* Segments are 8 KB-block aligned so adjacent segments never share
     a block: every block is written exactly once per rewrite. *)
  let block = 8192 in
  let round_up v = (v + block - 1) / block * block in
  let rec partition acc off =
    if off >= total then List.rev acc
    else begin
      let len =
        min (round_up (seg_min + Prng.int rng (seg_max - seg_min + 1))) (total - off)
      in
      partition ((off, len) :: acc) (off + len)
    end
  in
  let segments = Array.of_list (partition [] 0) in
  let n = Array.length segments in
  for i = 0 to n - 2 do
    if Prng.chance rng jump_prob then begin
      let j = min (n - 1) (i + 1 + Prng.int rng 30) in
      let tmp = segments.(i) in
      segments.(i) <- segments.(j);
      segments.(j) <- tmp
    end
  done;
  Array.iter
    (fun (off, len) -> Client.write s fh ~offset:(Int64.of_int off) ~len ~sync)
    segments
