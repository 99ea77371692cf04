(** Binding-time logic-locking design methodology — paper Sec. V-C.

    A designer states a target application error rate and a minimum
    acceptable SAT-attack runtime. Co-design then tunes the number of
    locked inputs per FU {e upward from one} until the error target is
    met — the smallest corrupting set, hence the maximum SAT resilience
    (Eqn. 1). If even that minimal set is not resilient enough, the
    plan flags that an exponential-SAT-iteration-runtime scheme
    (Full-Lock-style, {!Rb_netlist.Lock.permutation_network}) must be
    composed on top, paying its area/power premium only for the gap
    critical-minterm locking cannot close. *)

type goal = {
  target_error_events : int;
      (** minimum Eqn. 2 error events over the typical trace *)
  min_lambda : float;  (** minimum acceptable expected SAT iterations *)
}

type plan = {
  solution : Codesign.solution;  (** co-designed binding + locking *)
  minterms_per_fu : int;  (** chosen locked-input budget *)
  achieved_errors : int;
  predicted_lambda : float;  (** Eqn. 1 for the chosen budget *)
  meets_error_target : bool;
  meets_resilience : bool;
  exponential_topup : bool;
      (** true when an exponential-runtime scheme must supplement the
          critical-minterm lock to reach [min_lambda] *)
}

val design :
  ?key_bits:int ->
  Rb_sim.Kmatrix.t ->
  Rb_sched.Schedule.t ->
  Rb_hls.Allocation.t ->
  Codesign.spec ->
  goal ->
  plan
(** Increase the per-FU budget from 1 to [spec.minterms_per_fu], running
    the P-time co-design heuristic on [spec]'s locked FUs and candidate
    list at each step, and stop at the first budget meeting the error
    target; if none does, the largest budget is kept and
    [meets_error_target] is false. A spec from {!Codesign.make_spec}
    with [~minterms_per_fu:Codesign.n_candidates] tries every budget up
    to the candidate count. Raises [Invalid_argument] when
    [spec.minterms_per_fu < 1].

    [key_bits], when given, fixes the per-FU key length (a designer's
    area budget) instead of letting it grow with the locked-input count
    as the scheme's construction would; a fixed key is what makes the
    resilience gap — and hence the exponential top-up — reachable. *)
