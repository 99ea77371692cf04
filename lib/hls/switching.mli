(** Switching-rate cost model — the power proxy of Fig. 6 (bottom).

    The comparison binder [19] minimizes switching activity, so
    overhead is measured as the expected fraction of FU input-port bits
    that toggle per consecutive execution on the same unit, averaged
    over the typical trace. The value is in [0, 1]; the paper reports
    security-aware binding costing ~0.03 extra. The operand words come
    from the golden operand columns {!Rb_sim.Operands} (the "knowledge
    of the IC's input space" of Sec. II-B), the same columns the K
    matrix is built from. *)

val expected_input_hamming :
  Rb_sim.Operands.t -> Rb_dfg.Dfg.op_id -> Rb_dfg.Dfg.op_id -> float
(** Mean Hamming distance between the operand pairs of two operations
    across samples — the expected bit toggles on an FU's input ports if
    the second operation executes right after the first on the same
    unit. Symmetric. One popcount of the xor of the two minterms per
    sample, O(samples). The per-assignment cost {!Power_binding}
    minimizes. *)

val rate : Binding.t -> Rb_sim.Operands.t -> float
(** Normalized input-port toggle rate of a bound data path: total
    expected Hamming distance across all consecutive same-FU
    execution pairs, divided by the bits presented ([Minterm.bits]
    per transition). 0.0 when no FU executes twice. *)

val total_toggles : Binding.t -> Rb_sim.Operands.t -> float
(** Unnormalized expected toggle count per trace sample. *)
