(** The per-key-bit summary {!Rb_analysis.Keydep.summarize} computed
    before it became one pass over the nets, kept as a differential
    oracle. For every key bit it rescans the dependence set of every
    output and every gate net, so it costs the key width times the
    total size of those sets. *)

val summarize : Rb_netlist.Netlist.t -> Rb_analysis.Keydep.summary list
