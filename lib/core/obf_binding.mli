(** Obfuscation-aware binding — paper Sec. IV-B.

    Given a locking configuration whose locked minterms are already
    fixed, bind each cycle's concurrent operations to FUs by a
    max-weight bipartite matching whose edge weights are Eqn. 3
    ([w(i,j)] = occurrences of FU [i]'s locked minterms in operation
    [j]). Per-cycle matchings are independent (separability), so the
    concatenation is the binding with the maximum expected application
    errors (Thm. 2), in O(s |Nm| |R| log |R|) time. *)

val bind :
  Rb_sim.Kmatrix.t ->
  Rb_locking.Config.t ->
  Rb_sched.Schedule.t ->
  Rb_hls.Allocation.t ->
  Rb_hls.Binding.t
(** The public algorithm: always returns a valid, complete binding
    (Thm. 1) maximizing Eqn. 2 for the given configuration. *)

(** Allocation-light fast path used by the co-design enumerators: the
    locked minterm sets are given as candidate-index subsets per locked
    FU over a prebuilt {!Cost.cand_table}.

    Exact without a matching solver. Unlocked FUs weigh 0, weights are
    occurrence counts (never negative), and every cycle has at most as
    many operations as FUs, so any partial matching of a cycle's
    operations into the locked FUs extends to a full binding of equal
    weight. Each cycle's optimum is thus the best partial matching into
    the locked FUs, found by one integer subset DP over bitmasks of the
    cycle's rows that places one locked FU at a time (2{^rows} states
    per cycle, rows at most the kind's FU count). Operations whose
    candidate counts are all zero are dropped, and cycles with the same
    multiset of count vectors are solved once. *)
module Fast : sig
  type t
  (** Preprocessed (schedule, allocation, table) state reused across
      millions of assignments. Immutable, so one value can be shared by
      concurrent callers. *)

  val prepare :
    Cost.cand_table ->
    Rb_sched.Schedule.t ->
    Rb_hls.Allocation.t ->
    kind:Rb_dfg.Dfg.op_kind ->
    t
  (** Specialize to one operation kind (the paper binds kinds
      separately; only FUs of [kind] can be locked in this state).
      Raises [Invalid_argument] if a cycle has more operations of
      [kind] than the allocation has FUs of it. *)

  val extend :
    t -> fixed:(int * int array) list -> fu:int -> subsets:int array array -> int array
  (** [extend t ~fixed ~fu ~subsets] is, for each [i], the maximum
      Eqn. 2 value over bindings of this kind's operations with [fu]
      locking [subsets.(i)] and each (FU id, candidate-index subset)
      pair of [fixed] locked as well; the order of [fixed] does not
      matter. Does not materialize the binding. The heuristic's score,
      and the sweep's per-combination score where its configuration's
      {!fold_product} was capped to a shorter candidate list
      (elsewhere the sweep looks the value up in that fold). Counts
      one ["codesign/combinations"] per subset. Raises
      [Invalid_argument] on a repeated FU or one of another kind. *)

  val fold_product :
    t ->
    fus:int array ->
    subsets:int array array ->
    init:'a ->
    f:('a -> int array -> int -> 'a) ->
    'a
  (** [fold_product t ~fus ~subsets ~init ~f] folds [f acc tuple
      errors] over every non-decreasing [tuple] (tuple.(i) <=
      tuple.(i+1)), locking each FU [fus.(i)] with subset
      [subsets.(tuple.(i))], in lexicographic order of [tuple]
      ([fus.(0)] most significant); [errors] is the maximum Eqn. 2
      value under those locks, as {!extend} scores it. That is one
      tuple per multiset of subsets, [C(|subsets| + |fus| - 1, |fus|)]
      in all, not the [|subsets|^|fus|] of the full product.

      Nothing is lost by the restriction. Unlocked FUs weigh 0 and the
      per-cycle DP ranges over every partial matching into the locked
      FUs, so [errors] is symmetric in them: permuting a tuple's
      subsets across [fus] leaves it unchanged. Hence the
      lexicographically first tuple of maximum [errors] over the full
      product is non-decreasing (its sorted copy scores the same and
      is never lex-greater), and a caller keeping the first strictly
      best tuple of this fold gets that same tuple.

      Tuples sharing a prefix share its DP states, so the exhaustive
      co-design search pays about one step per cycle row per tuple.
      [f] sees the tuple of rank [i] ({!Rb_util.Combi.multiset_rank}
      [|subsets| |fus|]) as its [i]-th call.
      [tuple] is reused between calls and must not be retained. Counts
      one ["codesign/combinations"] per tuple. Raises
      [Invalid_argument] on a repeated FU or one of another kind. *)
end
