(** Locking-configuration design rules.

    A locking configuration can be structurally valid yet useless: lock
    too many minterms and the Eqn. 1 SAT-iteration bound collapses;
    lock minterms the workload never exercises and Eqn. 2 counts zero.
    Rules:

    - {!rule_resilience} [LOCK-RESIL] (error): a locked FU's predicted
      SAT-attack iterations (Eqn. 1, {!Rb_locking.Resilience}) fall
      below the designer's target.
    - {!rule_overlap} [LOCK-OVERLAP] (warning): two locked FUs share a
      locked minterm. Worth a look, not a defect: each FU corrupts
      independently, so a minterm frequent on both FUs' operations
      adds Eqn. 2 error on each, and the exact co-design
      ([Rb_core.Codesign.optimal]) often shares minterms and then
      beats every disjoint choice.
    - {!rule_candidates} [LOCK-CAND] (error): a locked minterm is
      outside the supplied candidate list [C] — the co-design pipeline
      only reasons about candidates, so an off-list minterm means the
      config was not produced by (or drifted from) the search. *)

module Minterm = Rb_dfg.Minterm

val rule_resilience : string
val rule_overlap : string
val rule_candidates : string

val check_config :
  ?min_lambda:float -> ?candidates:Minterm.t array -> Rb_locking.Config.t -> Diagnostic.t list
(** [min_lambda] enables the Eqn. 1 bound check, which reads each
    locked FU's key length and lambda from
    {!Rb_locking.Config.resilience}; [candidates] enables the
    candidate-list check. Checks with an absent parameter are
    skipped. *)
