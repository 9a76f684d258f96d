(** Application-level I/O shapes shared by the workload generators.

    The paper's Figure 5 shows that long write runs are only ~60%
    c-consecutive: applications like mail clients (rewriting a mailbox
    message by message) and linkers (emitting sections) write several
    sequential blocks and then seek forward or backward. *)

val seeky_write :
  Nt_util.Prng.t ->
  Nt_sim.Client.session ->
  Nt_nfs.Fh.t ->
  total:int ->
  seg_min:int ->
  seg_max:int ->
  jump_prob:float ->
  sync:bool ->
  unit
(** Rewrite [total] bytes as segments of [seg_min]–[seg_max] bytes in a
    partially shuffled order: every byte is written exactly once (same
    volume and op count as a sequential rewrite), but with probability
    [jump_prob] a segment trades places with a nearby later one, so the
    stream seeks forward and backward the way mail-client compaction
    and linker section emission do. *)
