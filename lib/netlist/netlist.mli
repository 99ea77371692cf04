(** Gate-level combinational netlists.

    Logic locking acts on the gate-level implementation of a functional
    unit (Sec. II-A); the SAT attack [10] acts on the same
    representation through a CNF encoding. This module provides the
    shared circuit type: a flat array of two-input gates over an
    indexed set of nets, with primary inputs first, key inputs second,
    and one net driven per gate.

    Nets are identified by dense integers: nets [0 .. n_inputs-1] are
    primary inputs, [n_inputs .. n_inputs+n_keys-1] are key inputs, and
    gate [i] drives net [n_inputs + n_keys + i].

    A netlist can only be made by {!Builder}, which rejects any operand
    or output that is not an existing net. Every gate therefore reads
    only inputs, keys and earlier gates: netlists are acyclic, and the
    gate array is a topological order. *)

type net = int

type gate =
  | And of net * net
  | Or of net * net
  | Xor of net * net
  | Nand of net * net
  | Nor of net * net
  | Xnor of net * net
  | Not of net
  | Buf of net
  | Mux of net * net * net
      (** [Mux (sel, a, b)] is [a] when [sel] is false, [b] otherwise *)
  | Const of bool

type t

val n_inputs : t -> int
val n_keys : t -> int
val n_gates : t -> int
val n_nets : t -> int
val gates : t -> gate array
val outputs : t -> net array

val gate_fanin : gate -> net list
(** Operand nets of a gate, in declaration order ([Mux] lists the
    select first). The one fan-in enumeration every traversal in the
    repo shares. *)

val key_net : t -> int -> net
(** [key_net c i] is the net of key input [i]. *)

val output_cone : t -> int array
(** Per net: the gates on its shortest path to an output ([0] for an
    output), or [-1] outside every output's structural fan-in. One
    backward sweep over the gate array; the one cone walk of the repo,
    read by RLL key placement and the oracle-less analysis. *)

val eval_lanes : t -> int array -> unit
(** Bit-parallel simulation: [eval_lanes c values] evaluates up to 63
    input patterns at once, one per bit position ("lane") of an OCaml
    [int]. [values] is caller-owned and holds one word per net: the
    caller sets the words of the primary inputs
    ([values.(0 .. n_inputs-1)]) and key inputs (the next [n_keys]),
    and [eval_lanes] overwrites every gate net with [land] / [lor] /
    [lxor] / [lnot] of its operands, so bit [j] of every word is the
    net's value under pattern [j]. Output values are read back through
    {!outputs}. Nothing is allocated, so a sweep reuses one array for
    every block of patterns. The one gate-semantics table of the
    library: {!eval} and {!eval_words} are one-lane calls of it.
    Raises [Invalid_argument] when [values] is shorter than
    {!n_nets}. *)

val eval : t -> inputs:bool array -> keys:bool array -> bool array
(** Simulate one input pattern, a one-lane {!eval_lanes}; returns
    output values in declaration order. Raises [Invalid_argument] on
    width mismatches. *)

val eval_words : t -> inputs:int -> keys:int -> int
(** Word-level convenience, a one-lane {!eval_lanes}: bit [i] of
    [inputs]/[keys] feeds input/key [i] (LSB first); the result packs
    the outputs the same way. Raises [Invalid_argument] when the
    circuit has more than 62 inputs, keys or outputs (the packed words
    would not fit an OCaml [int]). *)

val pp_stats : Format.formatter -> t -> unit
(** One-line summary: inputs/keys/gates/outputs. *)

(** Imperative netlist construction. *)
module Builder : sig
  type netlist := t
  type t

  val create : n_inputs:int -> n_keys:int -> t
  val input : t -> int -> net
  val key : t -> int -> net
  val gate : t -> gate -> net
  (** Append a gate; returns the net it drives. Raises
      [Invalid_argument] when an operand is not an existing net. *)

  val not_ : t -> net -> net
  val and_ : t -> net -> net -> net
  val or_ : t -> net -> net -> net
  val xor_ : t -> net -> net -> net
  val xnor_ : t -> net -> net -> net
  val mux : t -> sel:net -> a:net -> b:net -> net
  val const : t -> bool -> net

  val and_reduce : t -> net list -> net
  (** Conjunction of a non-empty list of nets (balanced tree). *)

  val or_reduce : t -> net list -> net
  (** Disjunction of a non-empty list of nets (balanced tree). *)

  val output : t -> net -> unit
  (** Declare an output, in call order. Raises [Invalid_argument] when
      the net does not exist. *)

  val finish : t -> netlist
end
