(** Resource budgets and cooperative cancellation for long-running
    work.

    A {!t} is an immutable bundle of optional limits threaded down
    from a CLI or driver into the two layers that use them: the SAT
    solver and attack, which poll {!check} at their own safe points
    and stop with a {!reason} instead of running forever, and the
    service executor, which polls {!interrupted} around each job and
    answers a tripped deadline or cancel with a structured error.

    The limits split into two classes, mirroring the determinism
    contract of {!Metrics}:

    - {b Conflict budgets are deterministic.} They count the solver's
      logical work, so a budgeted run aborts at the same point on
      every machine and for every [--jobs] value. Experiments and
      tests use only these.
    - {b Wall deadlines and cancel flags are not.} They exist for the
      interactive CLIs (a user-facing [--timeout], a SIGINT handler
      flipping the flag); deterministic surfaces must never depend on
      them.

    When {!Metrics} collection is enabled, {!note} records every
    budget stop under the ["limits"] scope ([budget_exhausted],
    [deadline_exceeded], [cancelled]). *)

type reason =
  | Conflicts  (** the solver's conflict budget ran out *)
  | Deadline  (** the wall-clock deadline passed *)
  | Cancelled  (** the cooperative cancel flag was raised *)

type t

val none : t
(** No limits: {!check} and {!interrupted} always return [None]. The
    default everywhere a [?limit] is accepted. *)

val make :
  ?max_conflicts:int ->
  ?deadline_s:float ->
  ?cancel:bool Atomic.t ->
  unit ->
  t
(** [deadline_s] is an {e absolute} time on the {!Metrics.now_s}
    clock (monotonic, so a stepped wall clock cannot trip or extend
    it); compute it as [Metrics.now_s () +. budget]. Omitted fields
    are unlimited. *)

val conflicts : int -> t
(** [conflicts n] = [make ~max_conflicts:n ()] — the common case. *)

val is_none : t -> bool
(** [true] iff no limit of any kind is set. Loops use this to skip the
    per-iteration poll entirely on the unlimited path. *)

val new_cancel : unit -> bool Atomic.t
(** A fresh cancel flag, initially unraised. Share one flag between a
    signal handler and any number of [make ~cancel] values. *)

val cancel : bool Atomic.t -> unit
(** Raise the flag. Async-signal-safe (one atomic store). *)

val cancelled : bool Atomic.t -> bool

val with_cancel : t -> bool Atomic.t -> t
(** [with_cancel t flag] adds one more cancel flag to [t]: the result
    trips as [Cancelled] when {e any} of [t]'s flags or [flag] is
    raised. Layered cancellation — e.g. a portfolio race's
    first-winner flag composed with an outer SIGINT flag — without
    the layers knowing about each other. *)

val with_deadline : t -> float -> t
(** [with_deadline t d] tightens [t] with an absolute deadline on the
    {!Metrics.now_s} clock: the result trips as [Deadline] at the
    earlier of [d] and any deadline already in [t]. Deadlines only
    ever shrink, so a per-request deadline composed onto a daemon-wide
    budget cannot extend it. *)

val has_budget : t -> bool
(** [true] iff a deterministic work budget (a conflict budget) is
    set. Budgeted runs must report the {e same} partial result at
    every parallelism level, so the SAT portfolio races no helpers
    under a budget: a budgeted attack is the one-member attack. *)

val check : t -> conflicts:int -> reason option
(** Poll every limit against the caller's {e per-call} conflict count.
    Checks in a fixed order — [Conflicts], [Cancelled], [Deadline] —
    so the reported reason is deterministic whenever the conflict
    budget is the one that trips. *)

val interrupted : t -> reason option
(** {!check} for loops with no solver counters: polls only the cancel
    flag and the deadline. Cheap enough for per-iteration use. *)

val reason_label : reason -> string
(** ["conflicts"], ["deadline"], ["cancelled"] —
    stable strings for tables and JSON. *)

val note : reason -> unit
(** Bump the ["limits"] counter for a stop that is about to be
    reported ([budget_exhausted] for the deterministic reason,
    [deadline_exceeded], [cancelled]). Callers that surface a reason
    should note it exactly once. *)
