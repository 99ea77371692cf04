(** Key-dependence cones: which key bits reach which nets, and through
    how many gates.

    The value of a net is the set of key bits whose value can
    structurally influence the net, each tagged with the {e minimum}
    gate depth from the key input: a gate takes the union of its
    operands' sets, keeping the minimum depth, and adds one.

    Per-key-bit summaries answer the questions a locking report asks:
    is the key bit observable at any output at all (a mute bit is free
    for an attacker to guess), how shallow is its shortest path to an
    output (shallow key logic is easier to isolate and strip), and how
    large is its dependent cone (a one-gate cone is removable). *)

type v = (int * int) list
(** Sorted association list: key bit index to minimum depth in gates.
    The empty list means key-independent. *)

val run : Rb_netlist.Netlist.t -> v array
(** Per-net key-dependence set. *)

type summary = {
  key_bit : int;
  outputs_reached : int list;  (** output positions, ascending *)
  min_output_depth : int option;
      (** gates on the shortest key-to-output path; [None] when the
          bit reaches no output (a mute key bit) *)
  cone_gates : int;  (** gates whose output net depends on the bit *)
}

val summarize : Rb_netlist.Netlist.t -> summary list
(** One {!summary} per key bit, ascending. One pass over the gate nets
    and one over the outputs, so the cost is the total size of the
    dependence sets, not that times the key width. *)
