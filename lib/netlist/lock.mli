(** Gate-level logic-locking constructions.

    Three constructions spanning the design space of Sec. II-A:

    - {!xor_random}: traditional random XOR/XNOR key-gate insertion
      (RLL). High corruption, falls to the SAT attack in a handful of
      iterations — the "high error, low resilience" end of the
      trade-off.
    - {!point_function}: critical-minterm locking in the SFLL/TTLock
      style. The designer picks protected input minterms; the circuit
      output is stripped on exactly those minterms and a key-programmed
      restore unit re-inserts them. Wrong keys corrupt a small static
      minterm set, so SAT resilience scales as paper Eqn. 1 — the
      scheme family both of the paper's algorithms assume.
    - {!permutation_network}: Full-Lock-style keyed routing network, an
      exponential-SAT-iteration-runtime scheme used by the Sec. V-C
      methodology to top up resilience.

    Each construction returns the locked netlist together with a
    correct key; the original circuit serves as the attack oracle. *)

type locked = {
  circuit : Netlist.t;  (** netlist with key inputs *)
  correct_key : bool array;  (** one functionally-correct key *)
  description : string;  (** human-readable scheme summary *)
}

val xor_random : rng:Rb_util.Rng.t -> key_bits:int -> Netlist.t -> locked
(** Insert [key_bits] XOR/XNOR key gates after distinct, randomly
    chosen live gates (gates in the fan-in of some output) of an
    unlocked circuit. Raises [Invalid_argument] if [key_bits] is not
    in [1 .. max_xor_key_bits c] or the circuit already has keys. *)

val max_xor_key_bits : Netlist.t -> int
(** The number of live gates of the circuit: the largest [key_bits]
    {!xor_random} accepts for it. *)

val point_function : minterms:int list -> Netlist.t -> locked
(** Lock an unlocked circuit on the given protected input minterms
    (packed LSB-first over the circuit's inputs, deduplicated). Key
    length is [|minterms| * n_inputs]; the correct key programs the
    restore unit with exactly the protected minterms. For any wrong
    key, output bit 0 is corrupted on each protected minterm that the
    key fails to restore (plus the wrongly-programmed patterns), so the
    locked-input set is static across wrong keys as required by
    Sec. IV. *)

val anti_sat : rng:Rb_util.Rng.t -> Netlist.t -> locked
(** Anti-SAT block (Xie & Srivastava, the basis of Strong Anti-SAT
    [6]): two complementary AND-trees over key-XORed inputs,
    [Y = g(X xor K1) and not g(X xor K2)], whose output flips the
    circuit's bit 0. Any key with [K1 = K2] is correct ([Y] is
    identically 0); for other wrong keys [Y] fires on exactly one input
    pattern, so corruption stays point-function-sparse while each SAT
    DIP eliminates O(1) wrong keys. Key length is [2 * n_inputs]; the
    returned correct key is K1 = K2 = random. *)

val permutation_network : rng:Rb_util.Rng.t -> layers:int -> Netlist.t -> locked
(** Prepend [layers] key-controlled swap layers (2 muxes per swap) to
    the circuit's primary inputs, after scrambling the inputs with a
    random fixed permutation that the correct key undoes. One key bit
    per swap: full layers carry [n_inputs / 2] swaps, the brick-offset
    (odd) layers of an even-width network one fewer, so every key bit
    drives a real swap. *)

val wrong_key_locked_minterms : locked -> key:bool array -> int list
(** Exhaustively enumerate, in ascending order, the input minterms on
    which the locked circuit under [key] differs from the correct-key
    behaviour. The one exhaustive sweep of the library (it also backs
    {!first_wrong_minterm} and {!error_rate}): {!Netlist.eval_lanes}
    simulates 32 minterms per word, correct and candidate key side by
    side, with no allocation per block. Exponential in input count;
    raises [Invalid_argument] above 20 inputs or when [key] does not
    have the circuit's key width. *)

val first_wrong_minterm : locked -> key:bool array -> int option
(** The smallest minterm {!wrong_key_locked_minterms} would list, or
    [None] when [key] is functionally correct. Stops the sweep at the
    first 32-minterm block that differs. *)

val error_rate : locked -> key:bool array -> float
(** Fraction of the input space corrupted under [key] (exhaustive). *)

val gate_overhead : locked -> baseline:Netlist.t -> float
(** Relative gate-count increase versus the unlocked baseline — the
    area-overhead proxy used when reproducing the Sec. V-C Full-Lock
    comparison. *)
