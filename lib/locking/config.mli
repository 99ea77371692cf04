(** A locking configuration over allocated functional units.

    The obfuscation-aware binding problem (Sec. IV) takes as input "1)
    the number of FUs locked, 2) the locking scheme used, and 3) the
    locked inputs"; this record is that specification. FU identities
    are the dense indices assigned at allocation time.

    Behavioural wrong-key semantics: a locked FU evaluated on one of
    its locked minterms produces {!corrupt}[ output] instead of the
    correct word — the module-level error event whose application-level
    count Eqn. 2 maximizes. Critical-minterm schemes guarantee the
    minterm set is static for (almost all) wrong keys, which is what
    makes this deterministic model faithful; see
    [Rb_netlist.Lock.point_function] for the gate-level counterpart
    used in SAT experiments. *)

module Minterm = Rb_dfg.Minterm

type t

val make : scheme:Scheme.t -> locks:(int * Minterm.t list) list -> t
(** [make ~scheme ~locks] builds a configuration from per-FU locked
    minterm lists. Raises [Invalid_argument] on duplicate FU ids,
    negative FU ids, or an empty minterm list for a locked FU. Sec. IV
    requires critical-minterm locking; {!Scheme.t} holds no other
    kind, so every [scheme] qualifies. *)

val scheme : t -> Scheme.t

val locked_fus : t -> int list
(** FU ids carrying a lock, ascending. *)

val minterms_of : t -> int -> Minterm.Set.t
(** Locked minterms of an FU; empty for unlocked FUs. *)

val is_locked_input : t -> fu:int -> Minterm.t -> bool

val corrupt : int -> int
(** Wrong-key output corruption applied by a locked FU on a locked
    minterm (bit-0 flip, the SFLL-style single-output-bit strip). *)

val resilience : ?key_bits:int -> t -> int -> int * float
(** [(k, lambda)] of FU [fu]: its key length [k] and its predicted
    SAT-attack iterations, {!Resilience.lambda_minterms} over the
    [Minterm.bits]-bit FU input space. [k] is the scheme's key length
    for the FU's locked-minterm count, or [key_bits] when a designer
    fixes the key budget. Raises [Invalid_argument] when [fu] is not
    locked. *)

val lambda_per_fu : ?key_bits:int -> t -> float
(** Worst-case (smallest) {!resilience} across the locked FUs;
    [infinity] when none is locked. The SAT-attack model assumes scan
    access, so resilience is per-module (Sec. II-A): the weakest FU is
    the design's resilience. *)

val pp : Format.formatter -> t -> unit
