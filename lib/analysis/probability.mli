(** Signal-probability estimation — the ProbLock statistic.

    Estimates, for every net, the probability that it evaluates true
    when primary inputs and key inputs are drawn uniformly at random.
    The estimate uses the standard independence rules
    ([P(a AND b) = P(a)P(b)] and friends), which are {e exact} whenever
    the circuit is a tree below the net (no reconvergent fan-out); on
    reconvergent circuits they are the usual first-order
    approximation. Same-net special cases that independence would get
    wrong are folded ([XOR (a, a)] has probability 0 even though
    independence would say [2p(1-p)]).

    The locking-relevant consumer is {!skewed_key_gates}: a key gate
    whose output probability is far from 1/2 leaks its key bit to a
    probability-matching attacker, exactly the signal ProbLock
    minimizes when choosing where to lock. *)

val estimate : Rb_netlist.Netlist.t -> float array
(** Per-net probability estimate, with every primary input and key
    input seeded at [0.5]. *)

val skew_lo : float
val skew_hi : float
(** The window [[skew_lo, skew_hi]] = [[0.05, 0.95]] outside which a key
    gate's output probability counts as skewed. *)

val skewed_key_gates : Rb_netlist.Netlist.t -> (int * float) list
(** Key gates whose output-net probability falls outside
    [[skew_lo, skew_hi]]: [(gate_index, probability)] in ascending gate
    order. A {e key gate} is a gate reading at least one key net
    directly. *)
