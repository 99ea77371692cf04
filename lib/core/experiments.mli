(** Experiment drivers regenerating the paper's evaluation (Sec. VI).

    The protocol mirrors the paper: for every benchmark, enumerate all
    locking configurations of {1,2,3} locked FUs x {1,2,3} locked
    inputs per FU; for each configuration, build a locked circuit for
    every combination of the candidate locked inputs under 1)
    obfuscation-aware, 2) co-design (optimal and P-time heuristic), 3)
    area-aware and 4) power-aware binding; and compare application
    errors (Eqn. 2) of each security-aware approach against each
    baseline with the identical locking configuration. Adders and
    multipliers are treated separately.

    Deviations from the paper, all reported in the result records
    rather than silently applied: combination spaces larger than
    [max_combos_per_config] are sampled (deterministically); optimal
    co-design spaces larger than [max_optimal_assignments] are re-run
    on a shortened candidate list; ratios floor a zero-error baseline
    at one error event.

    Every binding and locking configuration these drivers generate is
    run through [Rb_lint] before being measured; a rule violation
    raises [Rb_lint.Lint.Lint_error] instead of silently skewing a
    figure. *)

module Dfg = Rb_dfg.Dfg
module Minterm = Rb_dfg.Minterm

(** Everything derived once per benchmark. *)
type context = {
  benchmark : string;
  schedule : Rb_sched.Schedule.t;
  allocation : Rb_hls.Allocation.t;
  k : Rb_sim.Kmatrix.t;
  profile : Rb_hls.Profile.t;
  area_binding : Rb_hls.Binding.t;
  power_binding : Rb_hls.Binding.t;
  candidates_add : Minterm.t array;  (** top candidates among add ops *)
  candidates_mul : Minterm.t array;  (** top candidates among mul ops *)
}

val context :
  ?n_candidates:int -> name:string -> Rb_sched.Schedule.t -> Rb_sim.Trace.t -> context
(** Build the per-benchmark context ([n_candidates] defaults to the
    paper's 10 most common inputs, per operation kind). *)

val candidates_for : context -> Dfg.op_kind -> Minterm.t array

(** Eqn. 2 errors of one candidate-minterm assignment under the three
    per-combination binders. *)
type combo_errors = { e_area : int; e_power : int; e_obf : int }

type config_result = {
  kind : Dfg.op_kind;
  locked_fu_count : int;
  minterms_per_fu : int;
  combos_total : int;  (** full assignment-space size *)
  combos : combo_errors array;  (** evaluated assignments (all, or a sample) *)
  sampled : bool;  (** true when [combos] is a random sample *)
  e_codesign_optimal : int;  (** Eqn. 2 errors of optimal co-design *)
  optimal_candidates_used : int;
      (** candidate-list length the optimal run actually searched;
          smaller than the full list when the space was reduced *)
  e_codesign_heuristic : int;
  heuristic_searched : int;  (** assignments scored by the heuristic *)
}

val sweep :
  ?seed:int ->
  ?max_combos_per_config:int ->
  ?max_optimal_assignments:int ->
  ?fu_counts:int list ->
  ?minterm_counts:int list ->
  context ->
  Dfg.op_kind ->
  config_result list
(** Run the full configuration sweep for one operation kind. Defaults:
    seed 7, 2000 combinations per configuration, 300_000 optimal
    assignments, FU counts and minterm counts [\[1;2;3\]]. Returns one
    result per feasible configuration (infeasible ones — more locked
    FUs than allocated, fewer candidates than the budget — are
    skipped).

    A configuration whose assignment space fits the budget is
    evaluated exhaustively: [combos.(t)] is the [t]-th assignment in
    lexicographic order (one candidate subset per locked FU, first FU
    most significant). A larger space is sampled, and sample [t] draws
    its RNG from the seed, configuration and [t] alone. Evaluation is
    sequential; {!sweep_suite} is the parallel level. *)

val ratio_vs : int -> int -> float
(** [ratio_vs security baseline] with the zero-baseline floor. *)

(** Per-benchmark Fig. 4 aggregate: mean error-increase ratios. *)
type fig4_row = {
  row_benchmark : string;
  row_kind : Dfg.op_kind;
  obf_vs_area : float;
  obf_vs_power : float;
  cd_opt_vs_area : float;
  cd_opt_vs_power : float;
  cd_heur_vs_area : float;
  cd_heur_vs_power : float;
}

val fig4_row : benchmark:string -> Dfg.op_kind -> config_result list -> fig4_row option
(** None when the kind has no feasible configuration (e.g. multipliers
    in ecb_enc4). *)

(** Fig. 5 cell: ratios aggregated with one locking parameter fixed. *)
type fig5_cell = {
  cell_label : string;
  f5_obf_vs_area : float;
  f5_obf_vs_power : float;
  f5_cd_vs_area : float;
  f5_cd_vs_power : float;
}

val fig5_cells : config_result list -> fig5_cell list
(** Aggregate a pooled result list (all benchmarks and kinds) into the
    paper's seven x-axis groups: 1/2/3 FUs, 1/2/3 locked inputs, and
    the overall average. Co-design ratios use the P-time heuristic, as
    in the paper's Fig. 5. *)

(** Fig. 6: overhead of security-aware binding. *)
type overhead_result = {
  ov_benchmark : string;
  area_registers : int;  (** register count under area-aware binding *)
  obf_registers : float;  (** mean register count, obfuscation-aware *)
  cd_registers : float;  (** mean register count, co-design heuristic *)
  power_switching : float;  (** switching rate under power-aware binding *)
  obf_switching : float;
  cd_switching : float;
}

val overhead :
  ?seed:int -> ?combos_per_config:int -> context -> overhead_result
(** Average register count and switching rate of the security-aware
    binders over the configuration sweep (a small per-configuration
    combination subsample, default 10, since overhead varies little
    across combinations), against the baselines' values. *)

(** Error quality (Sec. III): measured wrong-key corruption of one
    co-designed locking configuration replayed through the trace
    simulator under a baseline binding and under the co-designed
    binding. *)
type quality_result = {
  q_benchmark : string;
  q_kind : Dfg.op_kind;
  base_events : int;  (** error events under area-aware binding *)
  base_corrupted_samples : int;
  base_max_burst : int;  (** longest consecutive-cycle injection run *)
  secure_events : int;  (** same metrics under the co-designed binding *)
  secure_corrupted_samples : int;
  secure_max_burst : int;
  samples : int;
}

val quality :
  ?locked_fus:int ->
  ?minterms_per_fu:int ->
  trace:Rb_sim.Trace.t ->
  context ->
  Dfg.op_kind ->
  quality_result option
(** Co-design a configuration (defaults 2 FUs x 2 minterms, shrunk to
    what the allocation and candidate list allow) and measure both
    bindings on the full trace. [None] when the kind has no FUs or no
    candidates. *)

(** The abstract's closing claim, quantified: "locking applied
    post-binding could not achieve a high application error rate and
    SAT resilience simultaneously". Fix a key budget; co-design
    reaches an error level with few locked minterms (high Eqn. 1
    resilience); locking the already-bound (area-aware) design needs
    many more minterms to match it, collapsing its resilience. *)
type post_binding_result = {
  pb_benchmark : string;
  pb_kind : Dfg.op_kind;
  codesign_errors : int;  (** error level set by co-design *)
  codesign_minterms : int;  (** locked minterms per FU it spent *)
  codesign_lambda : float;  (** Eqn. 1 at the fixed key budget *)
  post_minterms : int option;
      (** minterms per FU post-binding locking needed to match the
          error level ([None] if unreachable even after locking the
          whole candidate list on every locked FU) *)
  post_errors : int;  (** errors it reached *)
  post_lambda : float;  (** Eqn. 1 resilience it was left with *)
}

val post_binding :
  ?key_bits:int ->
  ?locked_fus:int ->
  ?minterms_per_fu:int ->
  context ->
  Dfg.op_kind ->
  post_binding_result option
(** Defaults: 32-bit key budget per FU, 2 locked FUs, 2 minterms per
    FU for co-design. Post-binding locking gets the best greedy choice
    from the same candidate list: for each locked FU of the area-aware
    binding, add the candidate with the most occurrences over that
    FU's operations, until the co-design error level is met. *)

(** {2 Suites}

    Whole-evaluation drivers: pure compute over a list of benchmark
    contexts, fanned out over an optional {!Rb_util.Pool}. All suites
    hold the determinism contract — output is a pure function of the
    inputs and seeds, independent of [?pool] and its worker count.
    Rendering lives in {!Render}. *)

(** Identifies one sweep within a suite. *)
type sweep_key = { sk_benchmark : string; sk_kind : Dfg.op_kind }

val sweep_suite :
  ?pool:Rb_util.Pool.t ->
  ?seed:int ->
  ?max_combos_per_config:int ->
  ?max_optimal_assignments:int ->
  ?fu_counts:int list ->
  ?minterm_counts:int list ->
  context list ->
  (sweep_key * config_result list) list
(** {!sweep} over every (benchmark, kind) pair, in benchmark order
    with Add before Mul. One pool task per pair, each a sequential
    {!sweep}. *)

val fig4_rows : (sweep_key * config_result list) list -> fig4_row list
(** The {!fig4_row} of every sweep that has at least one feasible
    configuration, in suite order. *)

val pooled_results : (sweep_key * config_result list) list -> config_result list
(** All configuration results of a suite flattened, e.g. for
    {!fig5_cells}. *)

val concentrations : context list -> float list
(** Candidate op-concentration of every candidate minterm across the
    suite (the workload statistic quoted next to Fig. 4). *)

(** One optimal co-design run that searched a shortened candidate
    list (disclosed alongside Fig. 5). *)
type reduced_run = {
  rr_benchmark : string;
  rr_kind : Dfg.op_kind;
  rr_locked_fu_count : int;
  rr_minterms_per_fu : int;
  rr_candidates_used : int;
}

val reduced_optimal_runs :
  ?full_candidates:int -> (sweep_key * config_result list) list -> reduced_run list
(** Configurations whose optimal run used fewer than [full_candidates]
    (default 10) candidates. *)

(** The paper-abstract numbers, computed from a sweep suite. *)
type headline_summary = {
  hl_obf_mean : float;  (** mean obf-aware error increase (paper: 26x) *)
  hl_cd_mean : float;  (** mean co-design error increase (paper: 99x) *)
  hl_gap_configs : int;  (** full-search configurations compared *)
  hl_gap_mean : float;  (** mean heuristic-vs-optimal gap, percent *)
  hl_gap_worst : float;  (** worst gap, percent (paper: < 0.5%) *)
}

val headline :
  ?full_candidates:int -> (sweep_key * config_result list) list -> headline_summary

val overhead_suite :
  ?pool:Rb_util.Pool.t ->
  ?seed:int ->
  ?combos_per_config:int ->
  context list ->
  overhead_result list
(** {!overhead} for every context, one pool task each. *)

val quality_suite :
  ?pool:Rb_util.Pool.t ->
  ?locked_fus:int ->
  ?minterms_per_fu:int ->
  trace_of:(context -> Rb_sim.Trace.t) ->
  context list ->
  quality_result list
(** {!quality} over every (benchmark, kind) pair; infeasible pairs are
    dropped. [trace_of] supplies each benchmark's replay trace. *)

val post_binding_suite :
  ?pool:Rb_util.Pool.t ->
  ?key_bits:int ->
  ?locked_fus:int ->
  ?minterms_per_fu:int ->
  context list ->
  post_binding_result list
(** {!post_binding} over every (benchmark, kind) pair. *)
