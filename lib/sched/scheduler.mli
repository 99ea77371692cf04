(** Scheduling algorithms.

    The paper schedules each benchmark "to be executed on up to 3 FUs
    using a path-based scheduler [24]" (Sec. VI). We provide ASAP (the
    unconstrained reference bound) and a resource-constrained
    path-based list scheduler that prioritizes operations on long
    dependency paths, the core idea of path-based scheduling. *)

type limits = { adders : int; multipliers : int }
(** Per-cycle resource bounds; both must be positive. *)

val default_limits : limits
(** Up to 3 FUs of each kind, the paper's experimental setting. *)

val asap : Rb_dfg.Dfg.t -> int array
(** Unconstrained as-soon-as-possible cycle per operation. *)

val path_based : ?limits:limits -> Rb_dfg.Dfg.t -> Schedule.t
(** Resource-constrained list schedule. Ready operations are ordered by
    (longest path to a sink, descending; id ascending) and packed into
    the earliest cycle with a free unit of the right kind. The result
    respects [limits] per-cycle (and is causal, as every
    {!Schedule.t} is). *)
