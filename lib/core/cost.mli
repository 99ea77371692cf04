(** The obfuscation-aware objective cost function — paper Eqn. 2.

    For a bound DFG whose locked FUs [l] lock minterm sets [M_l] and
    execute operation sets [N_l], the expected application errors over
    the typical workload are

    {v  E = sum over l, sum over m in M_l, sum over n in N_l of K(m, n)  v}

    This module evaluates E for arbitrary bindings/configurations, and
    provides the candidate-indexed fast path the co-design enumerators
    run millions of times. *)

module Dfg = Rb_dfg.Dfg
module Minterm = Rb_dfg.Minterm
module Kmatrix = Rb_sim.Kmatrix

val expected_errors :
  Kmatrix.t -> Rb_hls.Binding.t -> Rb_locking.Config.t -> int
(** E of Eqn. 2: locked-input occurrences summed over the operations
    bound to each locked FU. *)

val edge_weight :
  Kmatrix.t -> Rb_locking.Config.t -> fu:int -> op:Dfg.op_id -> int
(** w(i,j) of Eqn. 3: occurrences of FU [fu]'s locked minterms in
    operation [op]'s input stream. 0 for unlocked FUs. *)

(** Candidate-indexed occurrence table: [K] restricted to the candidate
    locked-input list, as dense arrays. Lets the enumerators weigh an
    (FU, operation) edge for any candidate subset with a few integer
    adds instead of hash lookups. *)
type cand_table

val cand_table : Kmatrix.t -> Minterm.t array -> cand_table

val candidates : cand_table -> Minterm.t array

val cand_count : cand_table -> cand:int -> op:Dfg.op_id -> int
(** Occurrences of candidate [cand] (by index) in operation [op]. *)

val subset_minterms : cand_table -> int array -> Minterm.t list
(** Resolve candidate indices back to minterms. *)
