(** Combinatorial enumeration used by the co-design algorithms.

    The optimal binding-obfuscation co-design of Sec. V enumerates all
    size-[k] subsets of the candidate locked-input list for each locked
    FU, and then every multiset of those choices across its
    interchangeable locked FUs. *)

val choose : int -> int -> int
(** [choose n k] is the binomial coefficient C(n, k), saturating at
    [max_int] instead of wrapping. Returns 0 when [k < 0] or [k > n]. *)

val multisets : int -> int -> int
(** [multisets n k] is the number of size-[k] multisets drawn from [n]
    kinds, C(n + k - 1, k), saturating at [max_int] (also when
    [n + k - 1] itself would overflow). *)

val multiset_rank : int -> int -> int array -> int
(** [multiset_rank n k tuple] is the index of the non-decreasing
    [tuple] (length [k], symbols in [\[0, n)]) among all such tuples in
    lexicographic order, from [0] to [multisets n k - 1]. Partial
    application [multiset_rank n k] builds an [O(k n)] prefix-count
    table once; each ranking then costs [O(k)]. The rank is
    meaningless for a tuple that is not non-decreasing or has a
    symbol out of range, and exact only while [multisets n k] does not
    saturate. Raises [Invalid_argument] when [tuple] is not of length
    [k]. *)

val k_subsets : 'a array -> int -> 'a array list
(** [k_subsets arr k] lists every size-[k] subset of [arr], each in the
    original element order, in lexicographic index order. C(n, k)
    subsets are produced. *)

val fold_k_subsets : 'a array -> int -> init:'b -> f:('b -> 'a array -> 'b) -> 'b
(** Allocation-light fold over the same enumeration as {!k_subsets};
    the subset array passed to [f] is reused between calls and must not
    be retained. *)

val product_size : int list -> int
(** Product of the list, saturating at [max_int] instead of wrapping so
    enumeration-size guards stay sound. *)
