(** The scalar key checks the library ran before
    {!Rb_netlist.Netlist.eval_lanes}, retained as differential oracles
    for {!Rb_netlist.Lock.wrong_key_locked_minterms} (and through it
    {!Rb_netlist.Lock.error_rate}), {!Rb_sat.Attack.key_is_correct} and
    the residual-error estimate of {!Rb_sat.Attack.approximate}. Every
    input pattern costs two scalar {!Rb_testsupport.Testgen.eval_outputs}
    calls, one per key, and each call allocates. The library's scalar
    {!Rb_netlist.Netlist.eval} and {!Rb_netlist.Netlist.eval_words} are
    one-lane {!Rb_netlist.Netlist.eval_lanes} calls; the oracle uses the
    reference evaluator of the test support library so that it stays
    independent of the lane evaluator. Slow; tests only. *)

module Lock = Rb_netlist.Lock

val wrong_key_locked_minterms : Lock.locked -> key:bool array -> int list
(** Minterms on which [key] and the correct key disagree, ascending. *)

val key_is_correct : Lock.locked -> bool array -> bool
(** No minterm distinguishes the candidate from the correct key; the
    sweep runs from the top minterm down and stops at the first
    difference. *)

val estimated_error_rate :
  Lock.locked -> key:bool array -> seed:int -> skip:int -> samples:int -> float
(** The sampled wrong-output rate as {!Rb_sat.Attack.approximate}
    computes it: an {!Rb_util.Rng} seeded with [seed] first draws the
    [skip] random oracle queries of the attack loop (one bool per
    primary input each), then [samples] random input patterns, and each
    pattern is evaluated with {!Rb_testsupport.Testgen.eval_outputs}
    under [key] and under the correct key. *)
