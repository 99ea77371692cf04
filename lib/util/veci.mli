(** Growable flat [int] vectors.

    The CDCL solver's watch lists and trail-like scratch buffers need
    push/truncate semantics without per-element boxing: an [int list]
    watch list allocates a cons cell per propagation step, which is
    exactly the garbage the hot loop must not produce. A [Veci] is a
    plain [int array] plus a length — pushes amortize to O(1), reads
    compile to unboxed array loads, and [truncate]/[clear] never
    release storage, so a buffer reused across iterations stops
    allocating entirely once it has seen its high-water mark. *)

type t

val create : ?cap:int -> unit -> t
(** Empty vector. [cap] pre-sizes the backing array (default 4);
    negative caps raise [Invalid_argument]. *)

val length : t -> int

val get : t -> int -> int
(** Bounds-checked read; raises [Invalid_argument] outside
    [0..length-1]. *)

val set : t -> int -> int -> unit
(** Bounds-checked write to an existing slot. *)

val push : t -> int -> unit
(** Append, growing the backing array geometrically when full. *)

val pop : t -> int
(** Remove and return the last element; raises [Invalid_argument] on
    an empty vector. *)

val truncate : t -> int -> unit
(** Shrink the length (storage is kept). Raises [Invalid_argument] if
    the new length is negative or exceeds the current length. *)

val clear : t -> unit
(** [truncate] to 0. *)

val to_list : t -> int list
val of_list : int list -> t
val to_array : t -> int array
(** Fresh array copy of the live prefix. *)

val iter : (int -> unit) -> t -> unit
val exists : (int -> bool) -> t -> bool

val unsafe_get : t -> int -> int
(** Unchecked read for loops that have already established bounds. *)

val unsafe_set : t -> int -> int -> unit

val unsafe_data : t -> int array
(** The backing array itself (valid up to [length - 1]). For hot loops
    that index one vector many times: reading through [t] reloads the
    [data] pointer after every write the compiler cannot prove
    non-aliasing, while a let-bound alias is loaded once. The alias is
    invalidated by [push] (which may reallocate); do not hold it
    across one. *)
