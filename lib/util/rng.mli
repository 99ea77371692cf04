(** Deterministic pseudo-random number generation.

    Every stochastic component of the library draws from an explicit
    generator state so that experiments are reproducible bit-for-bit.
    The implementation is splitmix64, which is fast, has a 64-bit state,
    and passes BigCrush; it is more than adequate for workload
    synthesis. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator seeded with [seed]. Equal
    seeds yield equal streams. *)

val copy : t -> t
(** [copy t] is an independent generator with the same current state. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of [t]'s subsequent output. Used to give
    each benchmark its own stream derived from one master seed. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** Fair coin flip. *)

val pick : t -> 'a array -> 'a
(** Uniformly chosen element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
