(** Gate-level design rules.

    Every locking construction is only as strong as the netlist that
    carries it: a key gate outside every output cone, or removable by
    constant folding, contributes zero corruption while still
    advertising key bits — exactly the malformed lock constructions
    that fall to trivial attacks. Rules:

    - {!rule_dead} [NET-DEAD] (warning): a gate outside every output
      cone — dead silicon that a synthesizer would strip.
    - {!rule_key_mute} [NET-KEY-MUTE] (error): a key input with no
      structural path to any output; its key bits are free to the
      attacker.
    - {!rule_key_strip} [NET-KEY-STRIP] (error): a key input whose
      every path to an output is cut by constant propagation
      (e.g. [k XOR k] feeding the logic) — the lock is trivially
      strippable.
    - {!rule_const_out} [NET-CONST-OUT]: an output driven directly by
      a key input (error — it leaks the key bit on an observable pin)
      or statically constant (warning).
    - {!rule_key_skew} [NET-KEY-SKEW] (warning): a key gate whose
      output signal probability under random keys falls outside
      [0.05, 0.95] — near-constant key gates leak their bits to
      ProbLock-style probability-profiling attacks.

    Structural well-formedness needs no rule:
    {!Rb_netlist.Netlist.Builder} rejects undefined operands and
    outputs, so every netlist is acyclic. The semantic facts (cones,
    constants, liveness, probabilities) come from the [Rb_analysis]
    dataflow sweep. *)

val rule_dead : string
val rule_key_mute : string
val rule_key_strip : string
val rule_const_out : string
val rule_key_skew : string

val check : Rb_netlist.Netlist.t -> Diagnostic.t list
(** Run every gate-level rule. *)
