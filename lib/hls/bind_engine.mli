(** The per-cycle bipartite-matching scaffold shared by every binder.

    All binding algorithms here have the same skeleton (Sec. IV-B):
    for each operation kind and each clock cycle [t], build the
    complete weighted bipartite graph between the cycle's concurrent
    operations [N_t] and the kind's allocated FUs, solve the assignment
    problem optimally, and take the matching as the cycle's binding.
    Only the edge-weight function differs between the obfuscation-,
    area- and power-aware algorithms.

    Cycles are visited in ascending order and, within a cycle, kinds in
    declaration order ([Add] then [Mul]); history-dependent weight
    functions (area, power) may therefore close over mutable state that
    tracks earlier assignments — the engine reports each cycle's
    matching through [on_bound] before weighing the next cycle. *)

type weight_fn =
  kind:Rb_dfg.Dfg.op_kind ->
  cycle:int ->
  op:Rb_dfg.Dfg.op_id ->
  fu:int ->
  float
(** Edge weight between an operation and a (kind-compatible, global-id)
    FU. *)

val bind :
  ?on_bound:(op:Rb_dfg.Dfg.op_id -> fu:int -> unit) ->
  objective:[ `Maximize | `Minimize ] ->
  weight:weight_fn ->
  Rb_sched.Schedule.t ->
  Allocation.t ->
  Binding.t
(** Run the scaffold. Each cycle's assignment is an optimum from
    {!Rb_matching.Matcher}; which of several tied optima it is depends
    only on the weight matrix, so tied cycles bind deterministically.
    [on_bound] fires once per operation, immediately after its cycle's
    matching is fixed and before the next cycle is weighed. Raises
    [Invalid_argument] if the allocation cannot cover some cycle's
    concurrency. *)
