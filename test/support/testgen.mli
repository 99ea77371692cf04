(** Shared generators for the test suites: random DFGs, schedules,
    traces, bindings and gate-level netlists with controlled shapes;
    and the reader of the golden files under [test/golden/]. *)

val random_dfg : ?n_ops:int -> ?n_inputs:int -> int -> Rb_dfg.Dfg.t
(** [random_dfg seed] builds a random, valid DFG (mixed add/mul;
    operands drawn from earlier results, inputs, and constants).
    Deterministic in [seed]. *)

val random_netlist :
  Rb_util.Rng.t -> n_inputs:int -> n_keys:int -> n_gates:int -> Rb_netlist.Netlist.t
(** A random circuit over the full gate alphabet, built gate by gate
    with [Netlist.Builder.gate]: every operand is drawn from the inputs,
    keys and earlier gates, and one to three outputs from all of them.
    Requires [n_inputs + n_keys >= 1]. *)

val eval_nets : Rb_netlist.Netlist.t -> inputs:bool array -> keys:bool array -> bool array
(** The value of every net under one input pattern: a scalar reference
    evaluator with its own gate-semantics table, independent of
    {!Rb_netlist.Netlist.eval_lanes} (and so of
    {!Rb_netlist.Netlist.eval}, a one-lane call of it). The differential
    oracle for the lane evaluator and for the per-net claims of the
    analyses. *)

val eval_outputs : Rb_netlist.Netlist.t -> inputs:bool array -> keys:bool array -> bool array
(** The outputs of {!eval_nets}, in declaration order. *)

val random_trace : ?n:int -> int -> Rb_dfg.Dfg.t -> Rb_sim.Trace.t
(** Uniform-random input trace (deterministic in the seed). *)

val skewed_trace : ?n:int -> int -> Rb_dfg.Dfg.t -> Rb_sim.Trace.t
(** Heavy-tailed trace: inputs drawn from a 4-value palette most of the
    time, so minterm histograms have tall heads like real workloads. *)

val random_valid_binding :
  int -> Rb_sched.Schedule.t -> Rb_hls.Allocation.t -> Rb_hls.Binding.t
(** A uniformly random binding that satisfies validity (per-cycle
    random assignment of ops to distinct kind-matched FUs). *)

val fig2_dfg : unit -> Rb_dfg.Dfg.t
(** The 5-operation, 2-cycle scheduled DFG of paper Fig. 2A (all adds:
    OPA..OPE). Operation ids 0..4 correspond to OPA..OPE. *)

val fig2_schedule : Rb_dfg.Dfg.t -> Rb_sched.Schedule.t
(** OPA, OPB in cycle 0; OPC, OPD, OPE in cycle 1 — Fig. 2A. *)

val fig2_kmatrix : Rb_dfg.Dfg.t -> Rb_sim.Kmatrix.t
(** The expected-occurrence table printed under Fig. 2A: input 'x' is
    minterm [(1,1)], input 'y' is [(2,2)]. *)

val minterm_x : Rb_dfg.Minterm.t
val minterm_y : Rb_dfg.Minterm.t

val read_golden : string -> string
(** The bytes of [test/golden/<name>], found from the test's working
    directory under [dune runtest] or next to its executable. *)
