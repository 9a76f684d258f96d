(** A fixed-size domain pool.

    OCaml 5 domains map 1:1 to cores and are expensive to spawn, so
    {!Driver.map_chunks} spawns them once and feeds them batches of
    closures. A pool of size <= 1 spawns no domains at all and runs
    every batch inline on the caller, which keeps [--jobs 1] (the
    default) free of any threading machinery while exercising the same
    chunked code path. *)

type t

val recommended : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val create : ?jobs:int -> unit -> t
(** [jobs] (default 1) is the worker-domain count; [jobs <= 0] means
    {!recommended}. With [jobs <= 1] no domains are spawned. *)

val run_all : t -> (unit -> 'a) array -> 'a array
(** Run every closure to completion and return their results in input
    order. Closures run concurrently on the pool's domains (inline, in
    order, for a size-1 pool), so they must not share mutable state. If
    any closure raises, the first exception (in completion order) is
    re-raised after the whole batch has drained — never from a worker.
    Must not be called from inside a pool task, and a pool serves one
    [run_all] batch at a time per caller. *)

val shutdown : t -> unit
(** Signal workers to exit and join them. Idempotent; [run_all] after
    shutdown raises [Invalid_argument]. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [create], run, and always [shutdown]. *)

val size : t -> int
(** Worker count the pool was created with (after the [<= 0]
    normalisation). *)

val peak_queue : t -> int
(** Highwater mark of queued-but-unclaimed tasks — the queue-depth
    number {!Driver.map_chunks} exports as the [par.queue_depth] gauge. *)

val tasks : t -> int
(** Total tasks ever submitted. *)
