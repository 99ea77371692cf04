(** Operand-value profiles of a DFG over its typical trace.

    Power-aware binding [19] and the switching-rate overhead model need
    the actual operand words each operation sees per trace sample (the
    "knowledge of the IC's input space" of Sec. II-B). A profile is
    that table: the golden operand columns of {!Rb_sim.Operands}, one
    16-bit minterm per (operation, sample) pair, each operation's
    samples contiguous. A context builds the columns once with
    {!Rb_sim.Operands.build} and derives both this profile and the K
    matrix ({!Rb_sim.Kmatrix.of_operands}) from them; this module
    only adds the power-binding queries. *)

type t = Rb_sim.Operands.t

val operands : t -> Rb_dfg.Dfg.op_id -> sample:int -> int * int
(** The (lhs, rhs) words operation [op] consumed in [sample]. O(1). *)

val expected_input_hamming : t -> Rb_dfg.Dfg.op_id -> Rb_dfg.Dfg.op_id -> float
(** Mean Hamming distance between the operand pairs of two operations
    across samples — the expected bit toggles on an FU's input ports if
    the second operation executes right after the first on the same
    unit. Symmetric. One popcount of the xor of the two minterms per
    sample, O(samples). *)
