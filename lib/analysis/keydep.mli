(** Key-dependence cones: which key bits reach which nets, and through
    how many gates.

    A net depends on a key bit when the bit can structurally influence
    it: a gate depends on every key bit any operand depends on. One
    forward sweep carries each net's key set as a word-parallel
    bitset.

    Per-key-bit summaries answer the questions a locking report asks:
    is the key bit observable at any output at all (a mute bit is free
    for an attacker to guess), how shallow is its shortest path to an
    output (shallow key logic is easier to isolate and strip), and how
    large is its dependent cone (a one-gate cone is removable). *)

type summary = {
  key_bit : int;
  outputs_reached : int;  (** output positions whose net depends on the bit *)
  min_output_depth : int option;
      (** gates on the shortest key-to-output path; [None] when the
          bit reaches no output (a mute key bit) *)
  cone_gates : int;  (** gates whose output net depends on the bit *)
}

val summarize : distance:int array -> Rb_netlist.Netlist.t -> summary list
(** One {!summary} per key bit, ascending. [distance] is the
    netlist's {!Rb_netlist.Netlist.output_cone}: a key bit's
    [min_output_depth] is its value at the key net. *)
