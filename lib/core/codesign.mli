(** Binding-obfuscation co-design — paper Sec. V.

    The locked minterms are no longer given: only the locked FU set,
    the per-FU locked-input budget [|M_l|], and a designer-supplied
    candidate list [C] are fixed. Both algorithms search assignments
    of size-[|M_l|] candidate subsets to locked FUs, scoring each with
    optimal obfuscation-aware binding (Sec. IV), so every score is the
    true maximum of Eqn. 2 for that assignment:

    - {!optimal} is exact and exponential (Sec. V-B.3). The paper's
      space is all [C(|C|, |M|)^|L|] assignments; locked FUs of one
      kind are interchangeable, so it scores one ordering of each:
      the [C(C(|C|, |M|) + |L| - 1, |L|)] multisets of subsets.
    - {!heuristic} fixes one FU at a time, choosing the subset whose
      obfuscation-aware binding yields the most errors with all
      previously-fixed FUs still locked — P-time,
      O(s |L| |Nm| |R| log |R|) for bounded [|C|] (Sec. V-A). *)

module Minterm = Rb_dfg.Minterm

type spec = {
  scheme : Rb_locking.Scheme.t;  (** critical-minterm, as every scheme is *)
  locked_fus : int list;  (** FU ids to lock; all of one kind *)
  minterms_per_fu : int;  (** the SAT-resilience budget |M_l| *)
  candidates : Minterm.t array;  (** the designer's list C *)
}

type solution = {
  config : Rb_locking.Config.t;  (** chosen locked minterms per FU *)
  binding : Rb_hls.Binding.t;  (** complete obfuscation-aware binding *)
  errors : int;  (** Eqn. 2 value of (config, binding) *)
  assignments_searched : int;  (** candidate assignments scored *)
}

(** {1 The locking shape}

    The experiment drivers, the service jobs, the bench and the
    examples all lock one shape, built by these two functions: the
    candidate list C is the kind's
    {!n_candidates} most common inputs, the locked FUs are the first
    [L] FU ids of the kind, and the budget is clamped to the list. *)

val n_candidates : int
(** [|C|] = 10, "the 10 most common inputs for each DFG" (Sec. VI). *)

val top_candidates : Rb_sim.Kmatrix.t -> Rb_dfg.Dfg.op_kind -> Minterm.t array
(** The candidate list C for one operation kind: the {!n_candidates}
    most frequent minterms among the kind's operations
    ({!Rb_sim.Kmatrix.top_minterms}), fewer when fewer occur. *)

val make_spec :
  Rb_hls.Allocation.t ->
  Rb_dfg.Dfg.op_kind ->
  locked_fus:int ->
  minterms_per_fu:int ->
  Minterm.t array ->
  spec
(** [make_spec allocation kind ~locked_fus:l ~minterms_per_fu:m c]
    locks the first [min l n] of the kind's [n] FU ids, ascending, with
    a budget of [min m |c|] minterms each, under SFLL-rem. Clamping
    never raises: a spec it leaves empty (no FU of the kind, [l < 1],
    an empty [c]) is refused by {!validate_spec}. *)

val validate_spec : Rb_hls.Allocation.t -> spec -> Rb_dfg.Dfg.op_kind
(** Check the spec (non-empty same-kind FU set, budget within the
    candidate count) and return the locked kind. Raises
    [Invalid_argument] otherwise. *)

val search_space : spec -> int
(** The number of assignments {!optimal} scores: multisets of [|L|]
    subsets drawn from the [C(|C|, |M|)] size-[|M|] candidate subsets,
    [C(C(|C|, |M|) + |L| - 1, |L|)], saturating at [max_int]. A
    solution's [assignments_searched] equals it. *)

val optimal :
  ?max_assignments:int ->
  Rb_sim.Kmatrix.t ->
  Rb_sched.Schedule.t ->
  Rb_hls.Allocation.t ->
  spec ->
  [ `Solution of solution | `Too_large of int ]
(** Exhaustive search over {!search_space} assignments, each FU list
    position taking a subset no earlier in lexicographic order than the
    one before it (see {!Obf_binding.Fast.fold_product}). Returns the
    lexicographically first assignment of maximum errors, which is the
    one a search of all [C(|C|, |M|)^|L|] orderings would return.
    Refuses (returning [`Too_large] with the space size) when the space
    exceeds [max_assignments] (default 500_000) rather than silently
    truncating. *)

val heuristic :
  Rb_sim.Kmatrix.t ->
  Rb_sched.Schedule.t ->
  Rb_hls.Allocation.t ->
  spec ->
  solution
(** The P-time sequential heuristic of Sec. V-A: for each locked FU in
    list order, one {!Obf_binding.Fast.extend} call scores every
    candidate subset with the FUs before it fixed, and the first
    subset of maximum errors is fixed. [assignments_searched] is
    [|L| C(|C|, |M|)]. *)
