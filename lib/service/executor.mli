(** Runs {!Job.t} values against the library pipelines.

    The executor is the one place that wires jobs into the binding,
    locking, lint, analysis and attack code — every CLI subcommand and
    every serve request goes through {!run}, so the pipeline exists
    exactly once. It owns:

    - a {!Rb_util.Pool} for the fan-out the old subcommands did
      themselves (per-benchmark lints, per-scheme analyses); nested
      maps run inline, so [run] itself may be called from a pool task
      (the serve batch path);
    - a {!Store.t} cache of whole job outcomes, keyed by
      {!Job.digest}, so a repeated job is computed once; a job's
      intermediate products (benchmark contexts, locked netlists,
      reports) are not cached, and each job rebuilds what it needs;
    - an optional {!Rb_util.Limits.t} threaded into the budgeted
      pipelines (SAT attack, analysis); the CLI passes none — keeping
      its outputs byte-identical to the pre-service commands — while
      serve passes a cancel flag so SIGINT interrupts long jobs. A
      per-request wall deadline can tighten that limit per [run] call.

    Failures are values: [run] never raises and never exits. Job
    errors (unknown benchmark, infeasible lock, tripped budget) come
    back as {!Error.t}; unexpected exceptions are folded into
    [Internal]. A [bind] or [custom] locking shape the design cannot
    hold is [Infeasible], from one check both pipelines share: more
    locked FUs than the kind has allocated (["only 0 mul FUs
    allocated"]), or more minterms per FU than the co-design candidate
    list holds (["workload too uniform: not enough candidate
    minterms"]). Successful outcomes are cached by job digest;
    failures are never cached, so a transient limit does not poison
    the store. Wall-clock stops (a passed deadline, a raised cancel
    flag) always surface as [Limit] {e errors}, never as truncated
    outcomes: an outcome shaped by when the job happened to run must
    not be cached under a digest that only describes what the job
    was. One check decides this for every job, before it starts and
    again after it ran, with the messages ["deadline exceeded"] or
    ["cancelled"] followed by ["before execution"] or ["during
    execution"]; an attack the solver stopped on a deadline or cancel
    answers the during-execution error like any other job. *)

type t

val create :
  ?limit:Rb_util.Limits.t -> ?store:Store.t -> pool:Rb_util.Pool.t -> unit -> t
(** [store] defaults to a fresh unbounded store; pass a
    [Store.create ~cap_bytes] store to bound resident outcomes. *)

val store : t -> Store.t
val pool : t -> Rb_util.Pool.t

val run : ?deadline_s:float -> t -> Job.t -> (Outcome.t, Error.t) result
(** Validate, consult the store, execute on a miss. [deadline_s] is an
    {e absolute} time on the {!Rb_util.Metrics.now_s} clock tightening
    the executor's limit for this request only; a job whose deadline
    passes before or during execution answers a [Limit] error (and is
    not cached). Also counts one [serve/jobs] on the
    {!Rb_util.Metrics} registry. *)

val run_batch :
  ?deadline_s:float -> t -> Job.t array -> ((Outcome.t, Error.t) result * float) array
(** [run] over the pool, preserving order; each slot carries the
    job's wall-clock seconds (for latency accounting — wall time is
    never part of an {!Outcome.t}). [deadline_s] applies to every job
    of the batch. *)
