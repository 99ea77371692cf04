(** Tseitin encoding of netlists into CNF.

    Instantiates a copy of a {!Rb_netlist.Netlist.t} inside a
    {!Solver}: every net receives a solver variable (or reuses a
    caller-supplied one, which is how the SAT attack shares primary
    inputs between the two halves of a miter and key variables across
    I/O-constraint copies). *)

type instance = {
  input_vars : int array;  (** solver variable per primary input *)
  key_vars : int array;  (** solver variable per key input *)
  output_vars : int array;  (** solver variable per output, in order *)
}

val gate_clauses : z:int -> v:(int -> int) -> Rb_netlist.Netlist.gate -> int list list
(** The CNF clauses asserting [z <-> gate(...)], with [v] mapping nets
    to variables — the per-gate encoding shared with {!Dimacs}. *)

val encode :
  ?input_vars:int array ->
  ?key_vars:int array ->
  Solver.t ->
  Rb_netlist.Netlist.t ->
  instance
(** Add one copy of the circuit to the solver. Omitted variable arrays
    are freshly allocated; supplied arrays must match the circuit's
    widths. Gate semantics are encoded with the standard 2-3 clause
    Tseitin forms. *)

val constrain_observation :
  Solver.t ->
  Rb_netlist.Netlist.t ->
  key_vars:int array ->
  inputs:bool array ->
  outputs:bool array ->
  unit
(** Assert [circuit(inputs, key) = outputs] as clauses over the
    existing [key_vars] — the incremental attack's per-DIP constraint.
    Unlike {!encode} + pinning, the encoding is specialized under the
    constant [inputs]: gates fold through constants and shared or
    negated literals unify, so fresh variables and clauses are
    allocated only for the key-dependent cone of this input pattern.
    Variable allocation is a deterministic function of
    [(circuit, inputs)], which keeps the variable spaces of portfolio
    members aligned. An observation a key cannot explain (possible
    only with an inconsistent oracle) makes the instance permanently
    unsatisfiable. *)
