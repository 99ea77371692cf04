(** The K matrix — expected locked-input occurrences per operation.

    [K(m, n)] is the number of times input minterm [m] is applied to
    operation [n] over the typical input trace (Sec. IV-A). It is the
    only statistic the paper's cost function (Eqn. 2) and both binding
    algorithms consume; building it once per benchmark makes every
    enumeration cheap.

    {b Representation.} Compressed sparse rows: one offsets array over
    the operations plus flat minterm and count arrays, each
    operation's run sorted by ascending minterm. A build stores only
    the (op, minterm) pairs that occur — in words, about three per
    distinct pair plus one per operation. In the costs below, [d] is
    the length of one operation's run and [E] the number of stored
    entries. *)

module Dfg = Rb_dfg.Dfg
module Minterm = Rb_dfg.Minterm

type t

val build : Trace.t -> t
(** Simulate the golden DFG over the whole trace and count, per
    operation, every operand minterm applied to it:
    [of_operands (Operands.build trace)]. *)

val of_operands : Operands.t -> t
(** Count each operation's operand column of a golden pass. One
    open-addressing table, with at least twice as many slots as an
    operation can see distinct minterms (the trace length, capped at
    {!Minterm.space_size}), is allocated per build and reused across
    operations: O(ops x samples) probes, each run appended in
    first-seen order, then one sort of all E entries by minterm (two
    byte-wide counting passes) and a stable scatter back into the
    runs, O(E). The [sim/kmatrix_build] timer
    covers only this counting; through {!build} it covers the golden
    pass too. *)

val of_counts : Rb_dfg.Dfg.t -> (Dfg.op_id * (Minterm.t * int) list) list -> t
(** Build a K matrix from explicit per-operation counts instead of a
    trace — used to encode the paper's worked examples (Figs. 1 and 2)
    and by tests. Unlisted (op, minterm) pairs count 0. Repeated
    (op, minterm) entries are summed; an explicit zero count stays an
    entry ({!op_histogram} lists it, {!distinct_minterms} counts it).
    Raises
    [Invalid_argument] on out-of-range ids or negative counts. *)

val dfg : t -> Dfg.t

val count : t -> Minterm.t -> Dfg.op_id -> int
(** [count k m n] is K(m, n); 0 when [m] never reaches [n]. A binary
    search of [n]'s run, O(log d). *)

val count_set : t -> Minterm.Set.t -> Dfg.op_id -> int
(** Sum of {!count} over a minterm set — the edge weight w(i, j) of
    Eqn. 3 for FU [i]'s locked set and operation [j]. O(|set| log d). *)

val op_histogram : t -> Dfg.op_id -> (Minterm.t * int) list
(** All (minterm, count) pairs for an operation, descending count, ties
    by ascending minterm. O(d log d). *)

val total_occurrences : t -> Minterm.t -> int
(** Occurrences of a minterm summed over all operations. One binary
    search per operation. *)

val top_minterms : ?kind:Dfg.op_kind -> t -> n:int -> Minterm.t list
(** The [n] most frequent minterms across the DFG (restricted to
    operations of [kind] when given) — the paper's candidate
    locked-input list C, "the 10 most common inputs for each DFG"
    (Sec. VI). Descending frequency, ties by ascending minterm.

    This and the other aggregate queries ({!all_minterms},
    {!distinct_minterms}, {!head_mass}) sort the selected operations'
    entries by minterm (two byte-wide counting passes, O(E)), sum the
    counts of equal minterms, then sort the distinct minterms by
    count. *)

val all_minterms : ?kind:Dfg.op_kind -> t -> (Minterm.t * int) list
(** Every minterm seen in the trace (restricted to operations of
    [kind] when given) with its total occurrence count, descending
    count then ascending minterm — {!top_minterms} is a prefix of
    this list. *)

val distinct_minterms : t -> int
(** Number of distinct minterms seen anywhere in the trace. *)

val head_mass : ?kind:Dfg.op_kind -> t -> n:int -> float
(** Fraction of all operand-minterm occurrences captured by the [n]
    most common minterms — how repetitive the workload is. The
    binding algorithms need this to be high (candidate lists carry
    real error mass). *)

val op_concentration : t -> Minterm.t -> float
(** Largest share of a minterm's occurrences attributable to a single
    operation, in [0, 1]. 1.0 means the minterm fires on exactly one
    operation — the regime where a security-oblivious binding is
    likeliest to miss it entirely, which is what drives the paper's
    largest error-increase ratios (see EXPERIMENTS.md). Returns 0 for
    minterms absent from the trace. One binary search per operation. *)
