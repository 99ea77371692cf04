(** Trace-driven execution of (possibly bound and locked) DFGs.

    Two execution modes back the whole evaluation:

    - the golden run ({!Fast.eval_clean}). Per sample, every
      operation's operand pair and result — the raw material of the K
      matrix (Sec. IV-A) and of the switching model.
    - the wrong-key run (inside {!application_errors}). Operations
      bound to a locked FU produce corrupted output whenever their
      (possibly already corrupted) operands form a locked minterm, and
      the corruption propagates through the dataflow — the
      application-level error the paper is engineering. *)

module Dfg = Rb_dfg.Dfg
module Minterm = Rb_dfg.Minterm

(** Zero-allocation evaluation for sample loops.

    [make] compiles the trace's DFG once — operand sources flattened
    to int arrays, input names resolved to sample columns — and
    allocates result buffers that every subsequent {!Fast.eval_clean}
    reuses. Callers that sweep a whole trace (the golden operand
    columns, the error aggregation, the RTL trace check) pay the
    interpretive cost per trace instead of per sample and allocate
    nothing inside the loop. *)
module Fast : sig
  type t

  val make : Trace.t -> t
  (** Compile the trace's DFG. O(ops), including the per-input name
      lookups the evaluation loop then never repeats. *)

  val n_ops : t -> int

  val eval_clean : t -> sample:int -> unit
  (** Golden evaluation of one sample into the internal buffers. *)

  val a : t -> int array
  (** Left operands of the last evaluation, indexed by op id. The
      buffer is owned by [t] and overwritten by the next evaluation —
      read, don't keep. *)

  val b : t -> int array
  (** Right operands; same ownership rules as {!a}. *)

  val results : t -> int array
  (** Results; same ownership rules as {!a}. *)
end

type error_report = {
  samples : int;  (** trace length *)
  error_events : int;  (** locked-input hits during faulty execution *)
  clean_hits : int;  (** locked-input hits during golden execution — the realized value of cost Eqn. 2 *)
  corrupted_output_words : int;  (** output words differing from golden, summed over samples *)
  corrupted_samples : int;  (** samples with at least one wrong output *)
  corrupted_cycles : int;  (** (sample, cycle) pairs with >= 1 injection *)
  max_consecutive_cycles : int;  (** longest error burst within a sample — the "quality" notion of Sec. III *)
}

val application_errors :
  Rb_sched.Schedule.t ->
  Trace.t ->
  fu_of_op:int array ->
  config:Rb_locking.Config.t ->
  error_report
(** Run the whole trace both clean and locked and aggregate the
    application-level error metrics. Raises [Invalid_argument] if the
    trace and schedule wrap different DFGs or the binding array length
    differs from the operation count. *)
