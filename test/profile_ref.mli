(** The original operand profile, retained as a differential oracle
    for the operand columns {!Rb_sim.Operands} and
    {!Rb_hls.Switching.expected_input_hamming}: two [int array array]
    tables (op -> sample -> operand word) filled by one single-sample
    {!Exec_ref.eval_clean} call per sample, and a Hamming distance that
    sums the popcounts of the two ports separately. The library stores one 16-bit minterm
    per (op, sample) and popcounts their xor once. *)

type t

val build : Rb_sim.Trace.t -> t
val n_samples : t -> int
val operands : t -> Rb_dfg.Dfg.op_id -> sample:int -> int * int
val expected_input_hamming : t -> Rb_dfg.Dfg.op_id -> Rb_dfg.Dfg.op_id -> float

val power_bind :
  Rb_sched.Schedule.t -> Rb_hls.Allocation.t -> t -> Rb_hls.Binding.t
(** {!Rb_hls.Power_binding.bind}'s algorithm driven by this profile. *)
