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

val run :
  ?limit:Rb_util.Limits.t ->
  ?input_prob:float ->
  Rb_netlist.Netlist.t ->
  float Engine.outcome
(** Per-net probability estimate. [input_prob] (default [0.5]) seeds
    every primary input and key input. *)

val estimate : ?input_prob:float -> Rb_netlist.Netlist.t -> float array
(** [run] projected to its values. *)

val skewed_key_gates :
  ?lo:float -> ?hi:float -> Rb_netlist.Netlist.t ->
  (int * float) list
(** Key gates whose output-net probability falls outside [[lo, hi]]
    (defaults [0.05] and [0.95]): [(gate_index, probability)] in
    ascending gate order. A {e key gate} is a gate reading at least
    one key net directly. *)
