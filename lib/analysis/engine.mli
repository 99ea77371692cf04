(** The forward-dataflow sweep over gate-level netlists.

    Ternary constant propagation and signal-probability estimation
    are instantiations of one loop: give every input and key net a
    boundary value, then visit the gates in index order and compute
    each driven net from its operands. Netlists come from
    {!Rb_netlist.Netlist.Builder}, so the gate array is a topological
    order and one sweep computes every net exactly; there is nothing to
    iterate, and every run completes.

    When {!Rb_util.Metrics} collection is enabled, runs count under the
    ["analysis"] scope ([fixpoint_runs], and [transfers], one per gate
    swept); the deterministic counters feed the bench section and the
    CI perf gate. *)

val run :
  init:(Rb_netlist.Netlist.net -> 'v) ->
  transfer:
    (Rb_netlist.Netlist.gate -> read:(Rb_netlist.Netlist.net -> 'v) -> 'v) ->
  Rb_netlist.Netlist.t ->
  'v array
(** One sweep: the value of every net, length
    {!Rb_netlist.Netlist.n_nets}. [init] seeds every net; analyses give
    inputs and keys their boundary values, and the sweep overwrites
    every gate net. [transfer g ~read] computes the value of [g]'s
    driven net, where [read] returns the value of an operand net. *)
