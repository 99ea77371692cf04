(** The locking scheme of a word-level configuration (paper Sec. II-A).

    The paper works with two families. {e Critical-minterm} schemes
    (SFLL [3-5], Strong Anti-SAT [6]) let the designer choose the
    corrupted minterms, keep them static across wrong keys, and get SAT
    resilience that scales with key length via Eqn. 1. {e Exponential
    SAT-iteration-runtime} schemes (Full-Lock [7], LoPher [8],
    Cross-Lock [9]) instead blow up per-iteration solver time, at heavy
    area/power cost. The binding algorithms require the former, so a
    {!Config.t} holds only a critical-minterm scheme, and SFLL-rem is
    the one every configuration in this repository uses. The
    gate-level constructions of both families (point function,
    Anti-SAT, keyed permutation network, random XOR) live in
    [Rb_netlist.Lock]. *)

type t = Sfll_rem  (** stripped-functionality locking, fault-based variant [5] *)

val name : t -> string

val key_bits : t -> minterms:int -> input_bits:int -> int
(** Key length of the scheme when protecting [minterms] patterns on a
    unit with [input_bits] primary input bits ([minterms * input_bits]
    for SFLL-rem); mirrors [Rb_netlist.Lock.point_function]. *)

val pp : Format.formatter -> t -> unit
