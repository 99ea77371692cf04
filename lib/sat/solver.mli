(** A CDCL Boolean-satisfiability solver.

    The SAT attack of Subramanyan et al. [10] — the resilience
    yardstick for every locking decision in the paper — needs a SAT
    solver with incremental clause addition. None is available in the
    sealed environment, so this is a from-scratch conflict-driven
    clause-learning solver: two-watched-literal propagation over flat
    watch lists with blocker literals ({!Rb_util.Veci}, no
    per-propagation allocation), first-UIP conflict analysis with
    clause learning and non-chronological backjumping, VSIDS branching
    through an {!Order_heap} (O(log n) decisions), phase saving, Luby
    restarts, and LBD-ranked learnt-clause database reduction so long
    incremental attacks do not drown in dead learnt clauses. It
    comfortably handles the miter-style instances produced by
    {!Attack} (tens of thousands of clauses, hundreds of thousands of
    conflicts). The test suite keeps the seed implementation
    ([test/solver_ref.ml]) as a differential-testing oracle.

    All heuristics count logical work only (conflicts, restart
    indices, reduction cadence), so runs are bit-deterministic across
    machines and [--jobs] values.

    Literals follow the DIMACS convention: variables are positive
    integers and a negative integer denotes negation.

    When [Rb_util.Metrics] collection is enabled, every [solve] call
    flushes its {!stats} deltas into the deterministic ["sat"]-scope
    counters ([solves], [sat_results], [unsat_results], [decisions],
    [conflicts], [propagations], [restarts], [learned_clauses]) and
    records wall-clock in the ["sat/solve"] timer. *)

type t

type result =
  | Sat
  | Unsat
  | Unknown of Rb_util.Limits.reason
      (** the [?limit] passed to {!solve} tripped before a decision was
          reached; the payload says which budget ran out *)

type stats = {
  decisions : int;
  conflicts : int;
  propagations : int;
  restarts : int;
  learned : int;
}

(** Search-heuristic diversification, the portfolio lever: every
    config decides the same instances, but restart cadence, VSIDS
    decay and initial phases steer the search differently, so racing
    members explore distinct parts of the space. *)
type config = {
  restart_base : int;  (** Luby restart unit in conflicts (default 100) *)
  var_decay : float;  (** VSIDS activity decay, in (0, 1) (default 0.92) *)
  phase_seed : int option;
      (** [None] initializes every saved phase to [false] (the default,
          and what biases models toward lexicographically small
          assignments); [Some seed] scatters initial phases by a
          deterministic per-variable hash of [seed] *)
}

val default_config : config

val diverse_config : int -> config
(** [diverse_config i] is a deterministic config for portfolio member
    [i]: member 0 is {!default_config} (a 1-member portfolio is
    exactly the plain solver), higher indices cycle through distinct
    restart/decay/phase combinations. *)

val create : ?config:config -> unit -> t
(** [config] defaults to {!default_config}. [Invalid_argument] when
    [restart_base < 1] or [var_decay] is outside (0, 1). *)

val new_var : t -> int
(** Allocate the next variable (1, 2, 3, ...). *)

val new_vars : t -> int -> int
(** [new_vars s n] allocates [n] variables and returns the first. *)

val n_vars : t -> int

val add_clause : t -> int list -> unit
(** Add a clause; literals over unallocated variables raise
    [Invalid_argument]. Adding the empty clause (or only falsified
    literals at level 0) makes the instance permanently unsatisfiable.
    May be called between [solve] calls (incremental interface). *)

val solve : ?assumptions:int list -> ?limit:Rb_util.Limits.t -> t -> result
(** Decide satisfiability of the current clause set under optional
    assumption literals. After [Sat], {!value} reads the model; after
    [Unsat] with assumptions, the instance may still be satisfiable
    under different assumptions.

    [?limit] (default {!Rb_util.Limits.none}) bounds the search:
    budgets are polled once per search-loop iteration against this
    call's own conflict/propagation deltas, and a tripped limit
    returns [Unknown reason] with the trail fully backtracked — the
    solver stays usable incrementally, and a later unlimited [solve]
    can still decide the instance. Conflict/propagation budgets abort
    at a deterministic point; deadline and cancel limits do not (see
    {!Rb_util.Limits}). An [Unknown] result counts under
    ["sat/unknown_results"] and ["limits/budget_exhausted"]. When the
    {!Rb_util.Faults} site ["sat/budget"] fires (keyed by this
    solver's solve ordinal), a budgeted call reports
    [Unknown Conflicts] immediately. *)

val value : t -> int -> bool
(** Model value of a variable after a [Sat] answer. Unconstrained
    variables read their saved phase (false initially). *)

val stats : t -> stats
(** Cumulative search statistics. *)

val set_learnt_hook : t -> (lbd:int -> int array -> unit) option -> unit
(** Install (or clear) a callback invoked on every clause the solver
    learns, with its literal-block distance. Learnt clauses are
    implied by the clause database {e alone} — CDCL resolves only on
    reason clauses, and assumptions are decisions, never reasons — so
    a hooked clause may be re-added to any solver holding the same
    clause set (the portfolio's clause-sharing channel). The array is
    owned by the callback; the hook runs on the solving domain, so it
    must be cheap and must not call back into this solver. *)

(** {2 Introspection for tests}

    Structural state of the learnt-clause database, exposed so the
    test suite can observe reduction behaviour that the solving
    interface hides. Not meant for production call sites. *)

val live_learnt_clauses : t -> int
(** Learnt clauses currently in the database (learned minus removed). *)

val db_reductions : t -> int
(** Times the learnt database has been reduced. *)

val removed_clauses : t -> int
(** Learnt clauses dropped by all reductions so far. *)

val reasons_are_live : t -> bool
(** No assigned variable's reason clause has been removed — the
    invariant that makes database reduction sound. *)
