(** The simulator as a live record source: the paper's workloads
    plugged into the monitor's {!Nt_mon.Feed} pull interface.

    Instead of simulating the whole interval and handing back a list,
    the feed advances the discrete-event engine one [slice_s] at a time
    from inside [pull], releasing horizon-sorted records as the clock
    passes them. With [speedup] set, simulated time is paced against
    the wall clock ([speedup] simulated seconds per real second) and
    [pull] answers [`Idle] when the simulation is ahead of schedule —
    which exercises the monitor's backoff path exactly the way a quiet
    capture port would. Unpaced (the default), it runs flat out and the
    feed closes when the workload interval is exhausted.

    The feed cannot seek ([pos] is [None]): a restored monitor resumes
    its windows and counters but replays no simulated suffix. *)

type workload = Pipeline.system = Campus | Eecs

val create :
  ?obs:Nt_obs.Obs.t ->
  ?email:Nt_workload.Email.config ->
  ?research:Nt_workload.Research.config ->
  ?slice_s:float ->
  ?speedup:float ->
  workload:workload ->
  start:float ->
  stop:float ->
  unit ->
  Nt_mon.Feed.t
(** [slice_s] (default 1.0 simulated second) bounds the engine work done
    by a single [pull]. [email]/[research] configure whichever workload
    [workload] selects. *)
