(** Switching-rate cost model — the power proxy of Fig. 6 (bottom).

    The comparison binder [19] minimizes switching activity, so
    overhead is measured as the expected fraction of FU input-port bits
    that toggle per consecutive execution on the same unit, averaged
    over the typical trace. The value is in [0, 1]; the paper reports
    security-aware binding costing ~0.03 extra. *)

val rate : Binding.t -> Profile.t -> float
(** Normalized input-port toggle rate of a bound data path: total
    expected Hamming distance across all consecutive same-FU
    execution pairs, divided by the bits presented ([Minterm.bits]
    per transition). 0.0 when no FU executes twice. *)

val total_toggles : Binding.t -> Profile.t -> float
(** Unnormalized expected toggle count per trace sample. *)
