(** Single-sample evaluation straight from the DFG, retained as a
    reference for {!Rb_sim.Exec}: the one-shot [eval_clean] and
    [eval_locked] calls the library once offered next to its compiled
    evaluator. Each call walks the operations in id order (ids are
    topological), resolves every operand through the DFG and the
    trace, and asks {!Rb_locking.Config.is_locked_input} per operation.
    Slow and allocating; tests only. *)

type op_eval = { a : int; b : int; result : int }
(** One operation's operand pair and result in one sample. *)

val eval_clean : Rb_sim.Trace.t -> sample:int -> op_eval array
(** Golden evaluation of one sample, indexed by operation id. *)

val eval_locked :
  Rb_sim.Trace.t ->
  sample:int ->
  fu_of_op:int array ->
  config:Rb_locking.Config.t ->
  op_eval array * int
(** Wrong-key evaluation of one sample under a binding ([fu_of_op]
    maps operation id to FU id): an operation on a locked FU whose
    (possibly already corrupted) operands form one of its locked
    minterms yields {!Rb_locking.Config.corrupt} of its result. Returns
    the per-operation evaluations and the number of such injections.
    Raises [Invalid_argument] if [fu_of_op] does not cover every
    operation. *)
