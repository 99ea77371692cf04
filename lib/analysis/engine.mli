(** The forward-dataflow sweep over gate-level netlists.

    Every structural analysis in this library — ternary constant
    propagation, signal-probability estimation, key-dependence cones —
    is one instantiation of the same loop: give every input and key net
    a boundary value, then visit the gates in index order and compute
    each driven net from its operands. Netlists come from
    {!Rb_netlist.Netlist.Builder}, so the gate array is a topological
    order and one sweep computes every net exactly; there is nothing to
    iterate.

    A run polls {!Rb_util.Limits.interrupted} once, before the sweep.
    A run stopped there reports the tripped {!Rb_util.Limits.reason}
    and leaves every gate net at its [init] value, so a consumer can
    degrade to a partial result instead of trusting half-computed
    values — the same contract as the budgeted SAT solver.

    When {!Rb_util.Metrics} collection is enabled, runs count under the
    ["analysis"] scope ([fixpoint_runs], and [transfers], one per gate
    swept); the deterministic counters feed the bench section and the
    CI perf gate. *)

type 'v outcome = {
  values : 'v array;  (** per net, length {!Rb_netlist.Netlist.n_nets} *)
  stopped : Rb_util.Limits.reason option;
      (** why the run stopped before its sweep, when it did *)
}

val run :
  ?limit:Rb_util.Limits.t ->
  init:(Rb_netlist.Netlist.net -> 'v) ->
  transfer:
    (Rb_netlist.Netlist.gate -> read:(Rb_netlist.Netlist.net -> 'v) -> 'v) ->
  Rb_netlist.Netlist.t ->
  'v outcome
(** One sweep. [init] seeds every net: analyses give inputs and keys
    their boundary values; gate nets keep theirs only when the run is
    stopped. [transfer g ~read] computes the value of [g]'s driven net,
    where [read] returns the value of an operand net. A tripped limit
    is counted via {!Rb_util.Limits.note}. *)

val output_cone : Rb_netlist.Netlist.t -> bool array
(** Per net: is the net an output or in the transitive structural
    fan-in of one? Shared by dead-logic reporting, key observability
    and the removal attack's dead-code elimination. *)
