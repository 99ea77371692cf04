(** Oracle-less structural attacks over locked netlists.

    Unlike the oracle-guided SAT attack in [Rb_sat], these attacks see
    {e only} the locked netlist — no working chip to query. They model
    the SCOPE/SWEEP family: propagate constants under trial key-bit
    values, keep the values the structure betrays, then strip the
    logic those values collapse. The two attacks form the closed set
    {!kind}; {!run} executes one and instruments it with
    deterministic [Metrics] counters under the ["attack"] scope.

    Every attack degrades gracefully: a [limit] or the
    ["analysis/fixpoint"] fault site stops the underlying fixpoint
    early, and the outcome carries the {!Rb_util.Limits.reason} with
    {e no} inferences claimed — a budget-stopped attack must never
    report half-propagated values as recovered key bits. *)

type inference = {
  bit : int;  (** key bit index *)
  value : bool;  (** inferred value *)
  via : string;
      (** which rule produced it: ["mute"], ["strip"] or
          ["pass-through"] *)
}

type outcome = {
  attack : string;
  inferred : inference list;  (** ascending key bit; empty if stopped *)
  gates_removed : int;  (** removal attack only; 0 otherwise *)
  keys_stripped : int;
  simplified : Rb_netlist.Netlist.t option;
      (** the rebuilt netlist, when the attack rewrites one *)
  stopped : Rb_util.Limits.reason option;
}

type kind =
  | Const_prop  (** ["const-prop"]: {!const_prop} *)
  | Removal  (** ["removal"]: {!removal} *)

val run : ?limit:Rb_util.Limits.t -> kind -> Rb_netlist.Netlist.t -> outcome
(** Run one attack. Each call bumps the counters
    ["attack/<name>_runs"], ["attack/<name>_inferred"] (by the
    inference count), ["attack/<name>_gates_removed"] and, when the
    outcome is stopped, ["attack/<name>_stopped"]; wall-clock goes to
    the timer ["attack/<name>_run"]. [<name>] is the outcome's
    [attack] field. *)

(** {1 The attacks, uninstrumented} *)

val const_prop : ?limit:Rb_util.Limits.t -> Rb_netlist.Netlist.t -> outcome
(** Constant-propagation key inference. Three rules, in order:
    {ul
    {- {b mute}: a key bit outside every output cone cannot affect the
       function; infer [false] (any value works — the canonical guess
       is deterministic).}
    {- {b strip}: a key bit inside an output cone but not live after
       constant folding is cancelled by the circuit ([k XOR k]-style
       defects); infer [false].}
    {- {b pass-through}: a key bit consumed only by XOR/XNOR gates
       whose other operand is an internal gate net is a textbook
       random-XOR lock: the key value making each gate transparent
       ([false] for XOR, [true] for XNOR) is the correct one, provided
       all consumers agree. Keyed XORs of {e primary inputs} (the
       Anti-SAT / point-function comparator shape) are excluded —
       there the XOR is a comparator input, not an inline repair, and
       the rule would guess blindly.}}
    A final validation pass re-propagates under the full inferred
    assignment and drops the pass-through inferences if any output
    becomes a constant that was not already constant under the free
    key — the structural signature of a wrong collapse. *)

val removal : ?limit:Rb_util.Limits.t -> Rb_netlist.Netlist.t -> outcome
(** Structural removal: take {!const_prop}'s inferred assignment, fold
    constants under it, and rebuild the netlist with every collapsed
    gate eliminated (constants folded, pass-through gates bypassed,
    dead logic dropped). The rebuilt circuit keeps the original
    input/key widths — stripped key inputs simply drive nothing — so
    it remains comparable under [Netlist.eval]. No-op (beyond
    inference) on structurally ill-formed netlists. *)

val strip :
  Rb_netlist.Netlist.t ->
  key:(int * bool) list ->
  Rb_netlist.Netlist.t * int
(** The rewriting core of {!removal}, usable with any partial key
    assignment [(bit, value)]: returns the rebuilt netlist and the
    number of gates removed. *)
