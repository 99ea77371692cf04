(** Input minterms of a functional unit.

    A locked FU corrupts its output for a fixed set of {e input
    minterms} — full assignments of its input operands (Sec. II-A).
    For the 2-operand word-level FUs modelled here, a minterm is the
    ordered operand pair [(a, b)], packed into one integer so it can be
    hashed and compared cheaply. *)

type t = private int
(** Packed operand pair. Total order and structural equality coincide
    with the packed integer. *)

val pack : int -> int -> t
(** [pack a b] packs operands (clamped to {!Word.width} bits). *)

val unpack : t -> int * int
(** Inverse of {!pack}. *)

val of_int : int -> t
(** Cast from an already-packed integer, clamped to the valid range.
    Useful for enumerating the whole minterm space. *)

val to_int : t -> int

val bits : int
(** Width of a minterm in bits, [2 * Word.width]: the input width of a
    two-operand FU, which Eqn. 1 and the key-length formulas take as
    their input width. *)

val space_size : int
(** Number of distinct minterms for one FU, [2^bits]. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

val pp : Format.formatter -> t -> unit
(** Prints as ["(a,b)"]. *)

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
