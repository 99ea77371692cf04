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

val lambda_per_fu : t -> float
(** Worst-case (smallest) predicted SAT-attack iterations across the
    locked FUs, from {!Resilience.lambda_minterms} with one correct
    key. The SAT-attack model assumes scan access, so resilience is
    per-module (Sec. II-A): the weakest FU is the design's
    resilience. *)

val pp : Format.formatter -> t -> unit
