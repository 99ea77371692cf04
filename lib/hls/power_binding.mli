(** Power-aware binding — the switching-minimizing baseline [19].

    Chang et al. bind to minimize the switched capacitance of the data
    path: consecutive operations on one FU should present similar
    operand words so few input bits toggle. Our per-cycle assignment
    cost of putting [op] on [fu] is the expected Hamming distance
    (over the typical trace) between [op]'s operand pair and that of
    the operation most recently executed on [fu]
    ({!Switching.expected_input_hamming}); an idle FU costs nothing.
    Minimized per cycle, in time order. *)

val bind :
  Rb_sched.Schedule.t -> Allocation.t -> profile:Rb_sim.Operands.t -> Binding.t
