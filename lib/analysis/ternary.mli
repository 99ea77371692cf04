(** Ternary constant propagation, parameterized by partial key
    assignments.

    Every net is either [Known] — forced to one boolean under every
    input and every key consistent with the pins — or [Unknown].

    Propagation applies the standard identities: domination
    ([And] with a false operand, [Or] with a true one), same-net
    identities ([Xor (a, a)] is false, [Xnor (a, a)] is true),
    known-select [Mux] narrowing and equal-known-branch [Mux]
    collapse. Seeding a key bit with a concrete value — the
    [?key] partial assignment — is what turns this analysis into the
    SCOPE/SWEEP-style oracle-less attack primitive: propagate under
    [k_i = 0] and [k_i = 1] and compare what the outputs can still
    do. *)

type const =
  | Known of bool  (** statically constant under every input/key *)
  | Unknown

val constants : ?key:const array -> Rb_netlist.Netlist.t -> const array
(** Per-net constant classification. [key], when given, must have
    length [n_keys]; [Known] entries pin the corresponding key net,
    [Unknown] entries leave it free. Primary inputs are always free. *)

val live_nets : Rb_netlist.Netlist.t -> const array -> bool array
(** [live_nets c consts]: per net, can the net influence an output
    value? [consts] is {!constants} of [c], under whatever key pins the
    caller chose. Walks backwards from the outputs, refusing to enter
    nets that [consts] proves constant, and following only the selected
    branch of a [Mux] whose select is known. A constant net is never
    live, an output included, so nothing feeding a constant output is
    either. *)
