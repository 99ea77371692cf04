(** Lightweight observability: named counters, gauges and wall-clock
    timers grouped into scopes, plus nested span tracing, behind one
    process-wide registry that renders to {!Json}.

    The design splits metrics into two classes with different
    guarantees:

    - {b Counters and gauges are deterministic.} They count logical
      work (solver decisions, DIP queries, operations evaluated,
      augmenting paths, pool tasks), so two runs of the same workload
      produce identical values regardless of [--jobs] or machine.
      Counter updates are atomic adds, which commute, so parallel
      fan-out cannot perturb them.
    - {b Timers and spans are not.} They observe wall-clock durations
      and are reported separately, so deterministic surfaces (stdout
      tables, counter snapshots) never embed a timing value.

    Collection is {e disabled by default}: every record operation
    first reads one atomic flag and returns immediately when the sink
    is off, so instrumented hot paths cost a predictable branch.
    Handles may be created eagerly at module initialization whether or
    not metrics are ever enabled.

    All operations are safe to call from pool worker domains. *)

type counter
type gauge
type timer

val enabled : unit -> bool
(** Is the sink collecting? [false] at startup. *)

val set_enabled : bool -> unit
(** Turn collection on or off. Registered metrics and their current
    values survive; only future record operations are affected. *)

val reset : unit -> unit
(** Zero every registered metric (counters to 0, gauges to 0, timers
    and spans to empty distributions). Registrations are kept. *)

val now_s : unit -> float
(** The clock used by {!time}, {!with_span} and
    {!Rb_util.Limits.with_deadline}: {e monotonic} seconds
    ([CLOCK_MONOTONIC] via a C stub), so durations and absolute
    deadlines are immune to NTP steps and wall-clock adjustments.
    The epoch is unspecified (typically boot time) — values are only
    meaningful as differences or as deadlines compared against later
    [now_s] samples, never as calendar timestamps. *)

(** {1 Handles}

    [counter ~scope name] returns the process-wide metric registered
    under [scope ^ "/" ^ name], creating it on first use; re-requesting
    the same key returns the same handle. Requesting a key that is
    already registered as a different metric type raises
    [Invalid_argument]. Scopes must not contain ['/']. *)

val counter : scope:string -> string -> counter
val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val gauge : scope:string -> string -> gauge
val set_gauge : gauge -> float -> unit

val timer : scope:string -> string -> timer

val observe : timer -> float -> unit
(** Record one duration, in seconds. *)

val time : timer -> (unit -> 'a) -> 'a
(** Run the thunk, recording its wall-clock duration when the sink is
    enabled. Exceptions propagate; the duration is still recorded. *)

val with_span : string -> (unit -> 'a) -> 'a
(** Nested span tracing. [with_span "fig4" f] times [f] under the span
    path ["fig4"]; a [with_span "sweep" g] inside [f] records under
    ["fig4/sweep"]. The span stack is per-domain, so spans opened by
    pool workers nest under the worker's own stack, not the
    submitter's. A no-op (beyond running the thunk) when disabled. *)

(** {1 Snapshots} *)

type dist = {
  count : int;
  total : float;  (** seconds *)
  min : float;  (** [infinity] when [count = 0] *)
  max : float;  (** [neg_infinity] when [count = 0] *)
}

type snapshot = {
  counters : (string * int) list;  (** ["scope/name"], sorted by key *)
  gauges : (string * float) list;
  timers : (string * dist) list;
  spans : (string * dist) list;  (** keyed by span path, sorted *)
}

val snapshot : unit -> snapshot
(** A consistent-enough copy of every registered metric (individual
    reads are atomic; the snapshot as a whole is not a global
    barrier — take snapshots between parallel phases, not inside
    them). All four lists are sorted by key. *)

val counter_deltas : before:snapshot -> after:snapshot -> (string * int) list
(** Per-key [after - before] for counters, dropping zero deltas;
    counters absent from [before] count from 0. Sorted by key. *)

val counters_to_json : (string * int) list -> Json.t
(** An object mapping counter key to integer value. *)

val to_json : snapshot -> Json.t
(** [{"counters": {..}, "gauges": {..}, "timers": {..}, "spans": {..}}]
    with each timer/span as
    [{"count": n, "total_s": t, "min_s": a, "max_s": b}]. *)
