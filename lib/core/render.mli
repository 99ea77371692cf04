(** The rendering half of the experiment layer.

    {!Experiments} and {!Ablation} compute structured records (fanned
    out over an {!Rb_util.Pool} when one is supplied); the functions
    here turn those record lists into the text tables the bench
    harness prints. Every function is a pure string producer, so the
    determinism contract can be tested end to end: rendering the
    records of a [--jobs n] run yields bytes identical to a [--jobs 1]
    run. *)

val fmt_ratio : float -> string
(** ["12.3x"]. *)

val fig4 :
  rows:Experiments.fig4_row list -> concentrations:float list -> string
(** The two Fig. 4 tables (with the running average rows) plus the
    paper-reference and op-concentration notes. *)

val fig5 : cells:Experiments.fig5_cell list -> string
(** The Fig. 5 table plus the paper-reference note. *)

val fig6 : Experiments.overhead_result list -> string
(** Register and switching overhead tables plus the paper-reference
    note. *)

val headline : Experiments.headline_summary -> string

val quality : Experiments.quality_result list -> string

val post_binding : Experiments.post_binding_result list -> string

val ablation :
  strategies:(string * Rb_dfg.Dfg.op_kind * Ablation.strategy_row list) list ->
  generalization:(string * Rb_dfg.Dfg.op_kind * Ablation.generalization_row) list ->
  budget_title:string ->
  budget:Ablation.budget_row list ->
  sensitivity_title:string ->
  sensitivity:Ablation.sensitivity_row list ->
  string
(** All four ablation tables with their interleaved commentary. *)
