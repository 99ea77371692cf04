(** The per-key-bit summary {!Rb_analysis.Keydep.summarize} computes,
    from an independent list lattice, kept as a differential oracle.
    Each net carries a sorted list of [(key bit, minimum depth)]
    pairs: a gate takes the union of its operands' lists, keeping the
    minimum depth, and adds one to every depth. For every key bit the
    summary then rescans the list of every output and every gate net,
    so it costs the key width times the total size of those lists. *)

val summarize : Rb_netlist.Netlist.t -> Rb_analysis.Keydep.summary list
