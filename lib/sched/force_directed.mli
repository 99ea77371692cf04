(** Force-directed scheduling (Paulin & Knight).

    The classic HLS scheduler that minimizes peak resource usage for a
    fixed latency: each unscheduled operation carries a probability
    distribution over its feasible time frame; "distribution graphs"
    accumulate expected usage per (kind, cycle); operations are fixed
    one at a time into the cycle minimizing the self-force (the
    increase in crowding), re-tightening the frames of their neighbours
    after every choice.

    Provided as an alternative front end to {!Scheduler.path_based}:
    experiments can check that the paper's binding results are not an
    artifact of one scheduling style (the schedule-sensitivity ablation
    in the bench harness). *)

val schedule : ?latency:int -> Rb_dfg.Dfg.t -> Schedule.t
(** Schedule with the given latency bound (default: the critical path
    length, the tightest feasible). Raises [Invalid_argument] if
    [latency] is below the critical path. The result is causal, as
    every {!Schedule.t} is. *)
