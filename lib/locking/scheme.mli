(** Logic-locking scheme taxonomy (paper Sec. II-A).

    The paper works with two families. {e Critical-minterm} schemes
    (SFLL [3-5], Strong Anti-SAT [6]) let the designer choose the
    corrupted minterms, keep them static across wrong keys, and get SAT
    resilience that scales with key length via Eqn. 1. {e Exponential
    SAT-iteration-runtime} schemes (Full-Lock [7], LoPher [8],
    Cross-Lock [9]) instead blow up per-iteration solver time, at heavy
    area/power cost. The binding algorithms require the former; the
    Sec. V-C methodology composes both. *)

type family =
  | Critical_minterm
      (** designer-chosen, key-independent corrupted minterms *)
  | Exponential_iteration_runtime
      (** per-SAT-iteration runtime grows exponentially *)

type t =
  | Sfll_rem  (** stripped-functionality locking, fault-based variant [5] *)
  | Strong_anti_sat  (** Strong Anti-SAT block [6] *)
  | Full_lock  (** keyed routing (permutation) network [7] *)
  | Random_xor  (** traditional XOR/XNOR key gates — the SAT-weak strawman *)

val family : t -> family

val name : t -> string

val key_bits : t -> minterms:int -> input_bits:int -> int
(** Key length of the scheme when protecting [minterms] patterns on a
    unit with [input_bits] primary input bits; mirrors the gate-level
    constructions in [Rb_netlist.Lock]. *)

val static_locked_inputs : t -> bool
(** Whether the corrupted minterm set is static across wrong keys —
    the assumption obfuscation-aware binding needs (Sec. IV). *)

val pp : Format.formatter -> t -> unit
