(** Oracle-less structural attacks over locked netlists.

    Unlike the oracle-guided SAT attack in [Rb_sat], these attacks see
    {e only} the locked netlist — no working chip to query. They model
    the SCOPE/SWEEP family: propagate constants under trial key-bit
    values, keep the values the structure betrays, then strip the
    logic those values collapse. Each attack instruments itself with
    deterministic [Metrics] counters under the ["attack"] scope. *)

type inference = {
  bit : int;  (** key bit index *)
  value : bool;  (** inferred value *)
  via : string;
      (** which rule produced it: ["mute"], ["strip"] or
          ["pass-through"] *)
}

type key_class =
  | Mute  (** outside every output cone: cannot affect the function *)
  | Strip
      (** inside an output cone but not live after constant folding:
          cancelled by the circuit ([k XOR k]-style defects) *)
  | Live

type facts = {
  distance : int array;  (** {!Rb_netlist.Netlist.output_cone} *)
  free : Ternary.const array;  (** {!Ternary.constants} under the free key *)
  classes : key_class array;  (** one per key bit *)
  dead : int list;  (** gates outside every output cone, ascending *)
}

val facts : Rb_netlist.Netlist.t -> facts
(** One cone walk, one free-key sweep and one {!Ternary.live_nets}
    walk: the one owner of these facts and of the mute/strip rule.
    {!const_prop}, [Report.analyze] and the [NET-*] lint rules read
    it. *)

val const_prop : Rb_netlist.Netlist.t -> facts -> inference list
(** [const_prop c (facts c)]: constant-propagation key inference. Three rules:
    {ul
    {- {b mute}: a {!Mute} key bit; infer [false] (any value works —
       the canonical guess is deterministic).}
    {- {b strip}: a {!Strip} key bit; infer [false].}
    {- {b pass-through}: a {!Live} key bit consumed only by XOR/XNOR
       gates whose other operand is an internal gate net is a textbook
       random-XOR lock: the key value making each gate transparent
       ([false] for XOR, [true] for XNOR) is the correct one, provided
       all consumers agree. Keyed XORs of {e primary inputs} (the
       Anti-SAT / point-function comparator shape) are excluded —
       there the XOR is a comparator input, not an inline repair, and
       the rule would guess blindly.}}
    A final validation pass re-propagates under the full inferred
    assignment and drops the pass-through inferences if any output
    becomes a constant that was not already constant under the free
    key — the structural signature of a wrong collapse. The result
    lists the mute and strip inferences, then the pass-through ones,
    each by ascending key bit.

    Each call bumps ["attack/const-prop_runs"] and
    ["attack/const-prop_inferred"] (by the inference count); wall-clock
    goes to the timer ["attack/const-prop_run"]. *)

val removal :
  Rb_netlist.Netlist.t -> inference list -> Rb_netlist.Netlist.t * int
(** [removal c inferences]: structural removal. Fold constants under
    the inferred assignment (normally {!const_prop}'s) and rebuild the
    netlist with every collapsed gate eliminated (constants folded,
    pass-through gates bypassed, dead logic dropped). Returns the
    rebuilt netlist and the number of gates removed. The rebuilt
    circuit keeps the original input/key widths — stripped key inputs
    simply drive nothing — so it remains comparable under
    [Netlist.eval]. Raises [Invalid_argument] on a key bit outside
    [c]'s key width.

    Each call bumps ["attack/removal_runs"],
    ["attack/removal_inferred"] (by the length of [inferences]) and
    ["attack/removal_gates_removed"]; wall-clock goes to the timer
    ["attack/removal_run"]. *)
