(** Ablation studies of the design choices around the paper's
    algorithms.

    The paper leaves several knobs open or argues them briefly; these
    drivers quantify them on our substrate:

    - {!candidate_strategies} (Sec. V-B.1): candidate locked-input
      lists may come from the most common inputs (best error, but
      leakable if the attacker knows the distribution), a random
      sample, or the least common inputs. Co-design "still maximizes
      locking-induced application errors" for any C — this measures
      what each choice costs.
    - {!generalization}: the K matrix is estimated on a {e typical}
      trace; does a binding tuned on one half of the workload still
      inject errors on the unseen half?
    - {!allocation_sensitivity}: how the error-increase ratio moves
      when the design is scheduled onto fewer or more FUs (more FUs =
      more binding freedom for the security-aware algorithms, but also
      more places for the baseline to "accidentally" dodge errors).
    - {!scheduler_sensitivity}: path-based vs force-directed front
      ends — checks the results are not an artifact of one scheduling
      style. *)

module Dfg = Rb_dfg.Dfg
module Minterm = Rb_dfg.Minterm

type candidate_strategy = Most_common | Random_sample | Least_common

val strategy_name : candidate_strategy -> string

val candidate_list :
  strategy:candidate_strategy -> Rb_sim.Kmatrix.t -> Dfg.op_kind -> Minterm.t array
(** Build a 10-minterm candidate list under a selection strategy
    ([Least_common] still requires at least one trace occurrence — a
    never-occurring minterm can never inject an error). *)

type strategy_row = {
  strategy : candidate_strategy;
  codesign_errors : int;  (** Eqn. 2 under co-design with this C *)
  candidate_mass : int;  (** total trace occurrences of the chosen C *)
}

val candidate_strategies : Experiments.context -> Dfg.op_kind -> strategy_row list
(** Run the {!Experiments.probe} co-design under each strategy on one
    benchmark context, in strategy order; a strategy whose probe is
    [None] (no FU of the kind, fewer than 2 candidates) has no row. *)

type generalization_row = {
  train_expected : int;  (** Eqn. 2 on the training half's K *)
  train_measured : int;  (** wrong-key error events replayed on the training half *)
  test_measured : int;  (** the same design on the unseen half *)
}

val generalization :
  Rb_sched.Schedule.t -> Rb_sim.Trace.t -> Dfg.op_kind -> generalization_row
(** Split the trace in half, co-design the {!Experiments.probe} on the
    first half's top candidates, measure injected errors on both
    halves. Raises [Invalid_argument] when the trace is too short to
    split or the probe is [None]. *)

type sensitivity_row = {
  label : string;
  obf_vs_area : float;  (** mean error-increase ratio, one L=2/m=2 config *)
  n_cycles : int;
}

val allocation_sensitivity :
  Rb_dfg.Dfg.t -> (unit -> Rb_sim.Trace.t) -> sensitivity_row list
(** Re-schedule the kernel onto 1..4 FUs per kind and report the
    obfuscation-aware error increase for a fixed locking shape. The
    trace thunk is re-invoked per allocation (trace depends only on
    the DFG). *)

val scheduler_sensitivity :
  Rb_dfg.Dfg.t -> (unit -> Rb_sim.Trace.t) -> sensitivity_row list
(** Same report for the two scheduling front ends (path-based list
    scheduling vs force-directed). *)

(** Profiling-budget sensitivity: Eqn. 2 of a lock co-designed on a
    trace prefix, and the corruption that lock actually injects when
    the full trace is replayed. *)
type budget_row = {
  prefix_len : int;  (** samples the K matrix was estimated on *)
  expected : int;  (** Eqn. 2 on the prefix's K *)
  measured : int;  (** error events replayed on the full trace *)
}

val profiling_budget :
  Rb_sched.Schedule.t -> Rb_sim.Trace.t -> Dfg.op_kind -> budget_row list
(** Re-run candidate selection and the {!Experiments.probe} co-design
    on growing trace prefixes (lengths 8..256). Raises
    [Invalid_argument] where the probe is [None]. *)
