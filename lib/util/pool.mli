(** A fixed-size domain pool for embarrassingly parallel evaluation.

    The experiment layer fans per-benchmark sweeps and suites out over
    OCaml 5 domains through this pool. The contract is
    deterministic parallelism: {!map_list}/{!map_array} collect results
    by task index, so the output is identical for every worker count —
    including [jobs = 1], which runs tasks inline in the calling domain
    with no domain machinery at all.

    Tasks must not share mutable state (each experiment task derives
    its own {!Rng.t} from the harness seed and its task index); the
    pool itself only synchronizes the work queue and result slots.

    A map call issued from inside a pool task runs sequentially in that
    task (nested fan-out never deadlocks the fixed worker set).

    When {!Metrics} collection is enabled, the pool reports under the
    ["pool"] scope: counters [maps] and [tasks] count map calls and
    elements mapped (elements are counted whether they run inline or on
    a worker, so the totals are identical for every worker count), and
    timers [queue_wait] / [task_busy] record per-task submission-to-start
    latency and execution time for tasks that ran on a worker. *)

type t

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the [--jobs] default. *)

val create : ?jobs:int -> unit -> t
(** Spawn a pool of [jobs] worker domains ([jobs] defaults to
    {!default_jobs}; values below 1 are clamped to 1). A 1-job pool
    spawns no domains. *)

val jobs : t -> int

val parallel : t -> bool
(** Does a map issued from the calling domain run on the workers?
    [false] on a 1-job pool and inside a pool task, where
    {!map_array} runs every element inline, one after another. *)

val map_array : t -> f:('a -> 'b) -> 'a array -> 'b array
(** Apply [f] to every element on the pool's workers and return the
    results in input order. Every element is evaluated exactly once.
    If any task raises, the remaining tasks still run to completion,
    and the exception of the lowest-indexed failing task is re-raised
    (with its backtrace) in the caller. *)

val map_list : t -> f:('a -> 'b) -> 'a list -> 'b list
(** {!map_array} over a list. *)

(** A bounded wait-free exchange buffer for racing pool tasks.

    Producers running concurrently on pool workers push values with a
    single fetch-and-add slot claim; pushes beyond [capacity] are
    dropped, so a push never blocks and never allocates beyond the
    fixed slot array. Draining is only sound at a {e quiescent point}:
    every producer must have finished (the pool map that ran them has
    returned) so the slot writes happen-before the reads. Built for
    the SAT-attack portfolio, which exports short learned clauses
    during a racing round and imports them between rounds. *)
module Share_buffer : sig
  type 'a t

  val create : capacity:int -> 'a t
  (** [Invalid_argument] when [capacity < 1]. *)

  val capacity : 'a t -> int

  val push : 'a t -> 'a -> bool
  (** Claim the next slot and store the value; [false] (value dropped)
      when the buffer is full. Wait-free, safe from any domain. *)

  val drain : 'a t -> 'a list
  (** All stored values in push order, emptying the buffer for the
      next round. Must only be called when no push is in flight. *)
end

val shutdown : t -> unit
(** Join the worker domains. Idempotent. Mapping over a pool after
    [shutdown] raises [Invalid_argument]. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] on a fresh pool and shuts it down on exit,
    including on exceptions. *)
