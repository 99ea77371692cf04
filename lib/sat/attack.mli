(** The oracle-guided SAT attack on logic locking.

    Implements Subramanyan et al.'s algorithm [10], the threat model of
    the entire paper: the attacker holds the locked netlist (from the
    GDSII) and black-box access to an activated chip (the oracle, which
    the scan-chain assumption extends to every locked module).

    The attack builds a miter of two locked-circuit copies with shared
    primary inputs and independent keys. While the miter is
    satisfiable, the model yields a {e distinguishing input pattern}
    (DIP); the oracle's response on that DIP is added as an I/O
    constraint on both key copies, pruning every key that disagrees.
    When the miter becomes unsatisfiable, any key consistent with all
    recorded I/O pairs is functionally correct, and the number of
    iterations measures the scheme's resilience — the quantity paper
    Eqn. 1 lower-bounds.

    {2 Incremental engine}

    The attack is fully incremental: one persistent {!Solver.t} (per
    portfolio member) holds the miter ({!Tseitin.miter}) for the whole
    run. The miter difference clause is guarded by an activation
    literal, so DIP
    rounds solve under the assumption [act], each oracle observation
    lands as constant-specialized clauses
    ({!Tseitin.constrain_observation} — learnt clauses survive across
    rounds), and the final key recovery solves the {e same} instance
    under [-act] instead of re-encoding the observation history.

    {2 Portfolio and the deterministic-result contract}

    With [portfolio = n > 1] and a pool of [j] workers, [min n j]
    identically-encoded members with diversified search heuristics
    ({!Solver.diverse_config}) race each round over the worker pool,
    exchanging short low-LBD learnt clauses at round boundaries (sound
    because members' variable spaces are aligned and learnt clauses are
    implied by the shared clause database alone). Helpers are built
    only where they can race: an attack with no pool, on a 1-job pool,
    run inside a pool task (where the pool maps inline, see
    {!Rb_util.Pool.parallel}) or under a conflict budget
    ({!Rb_util.Limits.has_budget}) runs one member, exactly the
    [portfolio = 1] attack. The {e reported} DIP sequence and key are
    identical at every [jobs]/[portfolio] combination, by
    construction:

    - member 0 {e owns the DIP sequence}: every DIP is member 0's own
      model, member 0 never imports shared clauses, and nothing may
      interrupt its solve except a proven Unsat — a fact about the
      constraint set, not about timing — so its models are exactly the
      [portfolio = 1] models;
    - members 1..n-1 are {e helpers}: their Sat models are never
      consumed; they accelerate the attack by racing the expensive
      Unsat proofs (any member proving Unsat ends the round soundly,
      since all members hold logically equivalent instances) and by
      sharing clauses with each other;
    - the recovered key is canonicalized to the lexicographically
      smallest key consistent with all observations — a property of
      the constraint set, not of whichever member finished the final
      round.

    Wall-clock and solver-side metrics (["sat/*"],
    ["attack/clauses_imported"]) remain timing-dependent when racing;
    deterministic surfaces run at [portfolio = 1]. *)

type outcome =
  | Broken of { key : bool array; iterations : int }
      (** the recovered key (lexicographically smallest consistent
          one) and the number of DIP iterations *)
  | Budget_exceeded of { iterations : int }
      (** iteration budget exhausted before convergence *)
  | Solver_limit of { iterations : int; reason : Rb_util.Limits.reason }
      (** a budgeted miter solve returned [Unknown]: the attack
          degrades to a partial estimate — [iterations] DIPs is a
          lower bound on the scheme's resilience *)

val attack_locked :
  ?max_iterations:int ->
  ?limit:Rb_util.Limits.t ->
  ?pool:Rb_util.Pool.t ->
  ?portfolio:int ->
  ?on_dip:(bool array -> unit) ->
  Rb_netlist.Lock.locked ->
  outcome
(** Attack a {!Rb_netlist.Lock.locked} construction, answering oracle
    queries with its own correct key (the usual experimental setup,
    where the attacker's chip is simulated). [max_iterations] defaults
    to 100_000. [?limit] bounds every miter and DIP-canonicalization
    solve (see {!Solver.solve}); a tripped limit yields [Solver_limit]
    instead of hanging on a pathologically hard miter. Key extraction
    after an [Unsat] miter is never budgeted. [?portfolio] (default 1,
    [Invalid_argument] below 1) is the number of racing solver members,
    clamped to [Pool.jobs] of [?pool], the workers they race on, and to
    1 wherever no race can run (see above). [?on_dip] observes each
    canonical DIP as it is queried, in order — the test hook for the
    deterministic-sequence contract. The returned key is the smallest
    consistent with all recorded DIPs; callers typically verify it
    exhaustively against the oracle in tests. *)

val key_is_correct : Rb_netlist.Lock.locked -> bool array -> bool
(** Exhaustively check functional equivalence of a candidate key
    against the construction's correct key: no input minterm tells them
    apart ({!Rb_netlist.Lock.first_wrong_minterm} is [None]). The
    check is the library's one lane sweep, 32 minterms per netlist
    pass, and stops at the first block that differs. Raises
    [Invalid_argument] above 20 inputs or on a key of the wrong
    width. *)

(** Result of the approximate (AppSAT-style) attack. *)
type approximate_outcome = {
  key : bool array;  (** best key consistent with everything observed *)
  dip_iterations : int;  (** exact DIPs spent *)
  random_queries : int;  (** random oracle queries injected *)
  converged : bool;  (** true if the miter went UNSAT within budget *)
  estimated_error_rate : float;
      (** sampled wrong-output rate of [key] vs the oracle *)
}

val approximate : ?dip_budget:int -> Rb_netlist.Lock.locked -> approximate_outcome
(** The approximate attack of Shamsi et al.'s impossibility result
    [12] (AppSAT-style): interleave exact DIP refinement with batches
    of random oracle queries and stop early, settling for an
    {e approximately} correct key. Runs on the same incremental miter
    (single member, raw model DIPs — rigor traded for speed).
    Point-function locking survives the exact attack by corrupting
    almost nothing — which is precisely why an attacker content with a
    low error rate wins quickly. This is the paper's motivation for
    needing {e application-level} corruption, not just SAT iterations.
    Defaults to 30 DIPs. Every 5 DIPs, 16 random queries are injected;
    the error rate is estimated on 2000 samples drawn one after another,
    after the random queries, from the same generator (seed 97),
    and simulated 32 at a time with {!Rb_netlist.Netlist.eval_lanes}. *)
