(** Tseitin encoding of netlists into CNF.

    {!encode} is the library's one encoder of a full circuit copy: it
    writes a {!Rb_netlist.Netlist.t} through a {!sink}, which is a
    {!Solver} in the SAT attack and a clause list in {!Dimacs}. Every
    net receives a variable; the primary inputs may reuse
    caller-supplied ones, which is how the two halves of {!miter} share
    them. {!constrain_observation} is the attack's other encoding: one
    copy specialized under fixed inputs. *)

type instance = {
  input_vars : int array;  (** variable per primary input *)
  key_vars : int array;  (** variable per key input *)
  output_vars : int array;  (** variable per output, in order *)
}

type sink = {
  new_var : unit -> int;  (** allocate the next variable *)
  add_clause : int list -> unit;  (** assert one clause *)
}
(** Where an encoding goes: variables are allocated and clauses added
    in call order, so two sinks fed the same encoding number their
    variables alike. *)

val solver_sink : Solver.t -> sink
(** {!Solver.new_var} and {!Solver.add_clause} of one solver. *)

val encode : ?input_vars:int array -> sink -> Rb_netlist.Netlist.t -> instance
(** Add one copy of the circuit. Variables are allocated for the
    primary inputs (unless [input_vars] is given, which must match the
    input width), then the keys, then one per gate in gate order. Each
    gate is encoded with its standard Tseitin clauses (one to
    four). *)

type miter = {
  copy_a : instance;
  copy_b : instance;  (** shares [copy_a]'s [input_vars] *)
  act : int option;  (** the activation variable, when requested *)
  diffs : int array;  (** difference indicator per output *)
}

val miter : activation:bool -> sink -> Rb_netlist.Netlist.t -> miter
(** The SAT-attack miter: two {!encode} copies sharing primary inputs
    with separate keys, then per output [j] an indicator [d_j] with
    [d_j -> (a_j xor b_j)], and one clause asserting that some [d_j]
    holds. With [~activation:true] a variable [act] is allocated after
    both copies and before the indicators, and that clause becomes
    [act -> some d_j]: solving under [act] asks for a differing pair,
    solving under [-act] leaves only the two copies. *)

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
