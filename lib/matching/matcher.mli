(** Instrumented assignment matching — the entry points every binder
    calls. See DESIGN.md §14.

    One engine: the dense Hungarian core ({!Hungarian}). A per-cycle
    binding instance is at most (operations of one kind in the cycle)
    × (FUs of that kind), a few cells at the paper's settings, so a
    dense O(n²m) solve is the right tool at every size binders meet.

    All entry points take a rectangular matrix with [rows <= cols],
    return [[||]] (and record nothing) for the 0-row matrix [[||]],
    and raise [Invalid_argument] as {!Hungarian.validate} does. Each
    non-empty solve records the ["matching/assignments"],
    ["matching/augmenting_phases"] and ["matching/relaxation_scans"]
    counters and the ["matching/assignment"] timer; canonicalization
    records the ["matching/canonicalize"] timer. *)

val min_cost : float array array -> int array
(** [min_cost cost] is the lexicographically smallest assignment
    minimizing the total cost: [assign.(r)] is the column matched to
    row [r]. Canonical, so the result depends only on the matrix. *)

val max_weight : float array array -> int array
(** [max_weight w] is the lexicographically smallest assignment
    maximizing the total weight ({!min_cost} on the negated matrix). *)

val max_weight_total : float array array -> float
(** [max_weight_total w] is the optimal total weight without
    canonicalizing the assignment behind it — optimal totals are
    unique already. The hot path of search loops that only rank
    candidates (the co-design sweep). *)
