(** Scheduled data-flow graphs.

    A schedule partitions a DFG into control steps (clock cycles);
    every operation executes in exactly one cycle, after all of its
    predecessors (Sec. II-B). Binding consumes the per-cycle,
    per-kind concurrency sets exposed here. *)

type t

val make : Rb_dfg.Dfg.t -> cycle_of:int array -> t
(** Wrap a cycle assignment and index its operations by (kind, cycle),
    in O(operations + edges + cycles). Raises [Invalid_argument] if the
    array length differs from the operation count, a cycle is negative,
    or an operation is not scheduled strictly after every one of its
    operand producers: every [t] is causal by construction. *)

val dfg : t -> Rb_dfg.Dfg.t

val cycle_of : t -> Rb_dfg.Dfg.op_id -> int
(** Control step of an operation, 0-based. *)

val n_cycles : t -> int
(** Number of control steps, [1 + max cycle]. *)

val ops_in_cycle : t -> Rb_dfg.Dfg.op_kind -> int -> Rb_dfg.Dfg.op_id list
(** Operations of one kind scheduled in one cycle, ascending id. These
    are the concurrent sets [N_t] of Sec. IV-B; [[]] for a cycle outside
    [\[0, n_cycles)]. {!make} indexes every (kind, cycle) pair in one
    pass, so this is an O(1) lookup, and repeated calls share one
    (immutable) list rather than rebuilding it. *)

val max_concurrency : t -> Rb_dfg.Dfg.op_kind -> int
(** Largest per-cycle operation count of a kind — the minimum FU
    allocation able to execute the schedule. O(1), read off the index. *)

val pp : Format.formatter -> t -> unit
(** Summary line: cycles and peak concurrency per kind. *)
