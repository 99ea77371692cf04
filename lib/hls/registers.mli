(** Register allocation and count — the area proxy of Fig. 6 (top).

    The comparison binder [20] minimizes register count, so overhead is
    measured in registers. Model: each FU owns a register bank that
    holds the values it produced until their last internal use; banks
    are not shared between FUs. A primary output is drained by the
    output interface in its production cycle and needs no slot, and a
    value read only in the next cycle by consumers on its own FU rides
    the FU's output latch instead (latch bypass). Every other value
    occupies a slot of its producer's bank from birth to death, and
    the left-edge algorithm gives each bank exactly its peak overlap
    of live values. Bindings that keep producer-consumer chains on one
    FU (area-aware) retire each bank's value before the next one is
    born; bindings that scatter them (security-aware) leave long-lived
    values in several banks at once — the effect the paper quantifies
    at ~4.7 registers. [Rb_rtl.Datapath] builds its registers from
    {!allocate}, so the RTL backend and the cost model agree by
    construction. *)

val allocate : Binding.t -> int * int option array
(** [(n, register_of)]: left-edge allocation of every bank, with
    [register_of.(p)] the register holding operation [p]'s value, or
    [None] when the value needs none (latch-resident, or never read
    after its birth cycle). Registers are numbered [0 .. n-1] bank by
    bank in FU order; inside a bank, values in birth order (an FU
    produces at most one value per cycle) take the lowest-numbered
    register whose previous tenant has died. *)

val count : Binding.t -> int
(** Registers {!allocate} uses: the sum of the bank peaks. *)

val value_lifetimes : Binding.t -> (Rb_dfg.Dfg.op_id * int * int) list
(** Per value, in op-id order: (producer op, birth cycle, death cycle)
    where death is the last cycle an internal consumer reads it, or the
    birth cycle when none does. Exposed for tests and reports. *)

val latch_resident_values : Binding.t -> Rb_dfg.Dfg.op_id list
(** Values that ride their FU's output latch (read only in the next
    cycle, only by consumers on the producing FU), in op-id order. *)
