(** Optimal assignment on dense weighted bipartite graphs — the
    Hungarian algorithm with potentials.

    Every binding algorithm in this library — the paper's
    obfuscation-aware binding (Sec. IV-B) as well as the area-aware [20]
    and power-aware [19] baselines — reduces one clock cycle of binding
    to an assignment problem: match each of the cycle's operations
    (rows) to a distinct functional unit (columns) optimizing the sum of
    edge weights. The paper invokes Karp's O(mn log n) matching [23];
    this module implements the classical O(n^2 m) Hungarian algorithm
    with potentials, which is exact and comfortably fast at HLS sizes
    (one instance is at most the cycle's operations of one kind times
    that kind's FUs).

    This is the uninstrumented core; binders go through {!Matcher},
    which records metrics and canonicalizes tied optima.

    Matrices are rectangular with [rows <= cols]; every row is
    assigned, columns may be left unassigned. *)

val validate : float array array -> int * int
(** [validate cost] is [(rows, cols)]. All rows must have the same
    positive length [cols >= rows]; the 0-row matrix [[||]] yields
    [(0, 0)]. Raises [Invalid_argument] on a ragged or over-tall
    matrix, or when any weight is NaN or infinite (NaN would silently
    corrupt the potentials). *)

val solve_with_duals :
  float array array -> int array * float array * float array * int
(** [solve_with_duals cost] minimizes the total cost of a matrix that
    {!validate} accepted with [rows >= 1]. It returns
    [(assign, u, v, scans)]: [assign.(r)] is the column matched to row
    [r]; [u]/[v] are optimal dual potentials with
    [cost.(i).(j) >= u.(i) +. v.(j)] everywhere, equality on matched
    cells, and [v.(j) <= 0.] with equality on unmatched columns; and
    [scans] counts inner relaxation scans. Records no metrics. *)
